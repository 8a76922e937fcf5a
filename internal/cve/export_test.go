package cve

import "testing"

// CheckDecoding and DecodingCases let the external fuzz test, which
// builds seeds with internal/gen (an importer of this package), drive
// the decoding oracle of decode_test.go.
func CheckDecoding(t testing.TB, name string, data []byte) int { return checkDecoding(t, name, data) }

func DecodingCases() []string {
	var docs []string
	for _, tc := range decodingCases() {
		docs = append(docs, tc.doc)
	}
	return docs
}

// RefApplyDelta lets FuzzApplyDelta, which builds its inputs with
// internal/gen, hold ApplyDelta to the reference merge of
// delta_test.go.
func RefApplyDelta(s *Snapshot, d *Delta) *Snapshot { return refApplyDelta(s, d) }
