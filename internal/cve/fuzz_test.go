package cve_test

import (
	"bytes"
	"fmt"
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

// FuzzApplyDelta holds ApplyDelta to the reference merge
// (cve.RefApplyDelta, which filters s through maps of the delta's IDs
// and sorts). Each input picks a window of a tiny generated feed, which
// is in ID order, and gives every entry of it one op: kept in both
// snapshots a and b, only in a, only in b, modified in b (and also
// removed by the hand-built delta when the op's fourth bit is set),
// removed, respelled in b (CVE-2018-00001234 for CVE-2018-1234), or in
// neither while the hand-built delta modifies or removes it, an ID a
// lacks. ApplyDelta of the hand-built delta must equal the reference,
// and so must ApplyDelta(a, Diff(a, b)), which must also be b.
func FuzzApplyDelta(f *testing.F) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 11})
	f.Add(uint16(7), []byte{2, 2, 3, 2, 2, 2, 2, 2, 2, 1})
	f.Add(uint16(390), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint16(100), []byte{5, 6, 0, 7, 7, 3, 11, 4, 1, 0})
	day := snap.CapturedAt
	f.Fuzz(func(t *testing.T, start uint16, ops []byte) {
		window := snap.Entries[int(start)%snap.Len():]
		ops = ops[:min(len(ops), len(window))]
		a := &cve.Snapshot{CapturedAt: day}
		b := &cve.Snapshot{CapturedAt: day.AddDate(0, 0, 1)}
		hand := &cve.Delta{CapturedAt: b.CapturedAt}
		for i, op := range ops {
			e := window[i]
			switch op % 8 {
			case 0: // kept
				a.Entries = append(a.Entries, e)
				b.Entries = append(b.Entries, e)
			case 1: // only in a
				a.Entries = append(a.Entries, e)
			case 2: // only in b, added
				b.Entries = append(b.Entries, e)
				hand.Added = append(hand.Added, e)
			case 3: // modified
				mod := e.Clone()
				mod.Descriptions = append(mod.Descriptions, cve.Description{Source: "fuzz", Value: "fuzz"})
				a.Entries = append(a.Entries, e)
				b.Entries = append(b.Entries, mod)
				hand.Modified = append(hand.Modified, mod)
				if op&8 != 0 {
					hand.Removed = append(hand.Removed, e.ID)
				}
			case 4: // removed
				a.Entries = append(a.Entries, e)
				hand.Removed = append(hand.Removed, e.ID)
			case 5: // respelled
				y, q, err := cve.SplitID(e.ID)
				if err != nil {
					t.Fatal(err)
				}
				re := e.Clone()
				re.ID = fmt.Sprintf("CVE-%d-%08d", y, q)
				a.Entries = append(a.Entries, e)
				b.Entries = append(b.Entries, re)
				hand.Removed = append(hand.Removed, e.ID)
				hand.Added = append(hand.Added, re)
			case 6: // a modification of an ID a lacks
				hand.Modified = append(hand.Modified, e)
			case 7: // a removal of an ID a lacks
				hand.Removed = append(hand.Removed, e.ID)
			}
		}
		same := func(label string, got, want *cve.Snapshot) {
			t.Helper()
			if !got.CapturedAt.Equal(want.CapturedAt) {
				t.Fatalf("%s: captured at %v, want %v", label, got.CapturedAt, want.CapturedAt)
			}
			if len(got.Entries) != len(want.Entries) {
				t.Fatalf("%s: %d entries, want %d", label, len(got.Entries), len(want.Entries))
			}
			for i := range want.Entries {
				if got.Entries[i] != want.Entries[i] {
					t.Fatalf("%s: entry %d is %s, want %s", label, i, got.Entries[i].ID, want.Entries[i].ID)
				}
			}
		}
		same("ApplyDelta(hand-built)", a.ApplyDelta(hand), cve.RefApplyDelta(a, hand))
		d := cve.Diff(a, b)
		merged := a.ApplyDelta(d)
		same("ApplyDelta(Diff)", merged, cve.RefApplyDelta(a, d))
		same("ApplyDelta(a, Diff(a, b))", merged, b)
	})
}
