package cve_test

import (
	"bytes"
	"io"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// FuzzReadFeed is the differential fuzz target of the one-pass decoder:
// each input goes to ReadFeed and UnmarshalDelta and to their
// reflection-based references, which must agree as
// TestFeedDecodingMatchesReference requires (cve.CheckDecoding). The
// seeds are a few entries of a tiny generated feed, compact and
// indented, a log record of them, and every hand-written document of
// TestFeedDecodingMatchesReference.
func FuzzReadFeed(f *testing.F) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	few := &cve.Snapshot{CapturedAt: snap.CapturedAt, Entries: snap.Entries[:4]}
	for _, write := range []func(io.Writer, *cve.Snapshot) error{cve.WriteFeedCompact, cve.WriteFeed} {
		var buf bytes.Buffer
		if err := write(&buf, few); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	rec, err := cve.MarshalDelta(&cve.Delta{
		CapturedAt: snap.CapturedAt,
		Added:      snap.Entries[4:6],
		Modified:   snap.Entries[6:7],
		Removed:    []string{snap.Entries[7].ID},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	for _, doc := range cve.DecodingCases() {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cve.CheckDecoding(t, "input", data)
	})
}
