package nvdclean_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/predict"
)

// assertFingerprint requires res's reuse state, when its severity stage
// ran, to hold the dataset fingerprint of res's cleaned view under the
// seed it trained with, however the run came by it: hashed, or carried
// from the Result it started from.
func assertFingerprint(t *testing.T, label string, res *nvdclean.Result) {
	t.Helper()
	st := res.StoreCheckpoint().State
	if !st.Trained {
		return
	}
	if want := predict.DatasetFingerprint(res.Cleaned, st.Training.Seed); st.Fingerprint != want {
		t.Fatalf("%s: state fingerprint %x, DatasetFingerprint of the cleaned view %x", label, st.Fingerprint, want)
	}
}

// assertCleanedDelta requires the cleaned-view delta res records to be
// Diff(prev.Cleaned, res.Cleaned): the same entry pointers in Added and
// Modified, the same IDs in Removed, all in the same order, and the
// same capture time.
func assertCleanedDelta(t *testing.T, label string, prev, res *nvdclean.Result) {
	t.Helper()
	got, want := res.CleanedDelta, nvdclean.Diff(prev.Cleaned, res.Cleaned)
	if got == nil {
		t.Fatalf("%s: CleanDelta recorded no cleaned-view delta", label)
	}
	for _, list := range []struct {
		name      string
		got, want []*nvdclean.Entry
	}{{"Added", got.Added, want.Added}, {"Modified", got.Modified, want.Modified}} {
		if !slices.Equal(list.got, list.want) {
			t.Fatalf("%s: recorded %s %v, Diff's %v", label, list.name, entryIDs(list.got), entryIDs(list.want))
		}
	}
	if !slices.Equal(got.Removed, want.Removed) {
		t.Fatalf("%s: recorded Removed %v, Diff's %v", label, got.Removed, want.Removed)
	}
	if !got.CapturedAt.Equal(want.CapturedAt) {
		t.Fatalf("%s: recorded capture time %v, Diff's %v", label, got.CapturedAt, want.CapturedAt)
	}
}

func entryIDs(es []*nvdclean.Entry) []string {
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	return ids
}

// chainEdits are the one-entry feed updates TestCleanDeltaCleanedDelta
// chains, each built from the current original snapshot, the i-th call
// picking its entry by i (see nth). retrains marks the three that
// change the dual-labeled training split; every other one must carry
// the engine.
var chainEdits = []struct {
	name     string
	retrains bool
	make     func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta
}{
	{"description edit, v2-only", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only).Clone()
		e.Descriptions[0].Value += fmt.Sprintf(" Edit %d.", i)
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
	{"description edit, dual-labeled", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, dualLabeled).Clone()
		e.Descriptions[0].Value += fmt.Sprintf(" Edit %d.", i)
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
	{"added after every ID", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only).Clone()
		e.ID = cve.FormatID(2019, 100+i)
		return &nvdclean.Delta{Added: []*nvdclean.Entry{e}}
	}},
	{"added dual-labeled, mid-order", true, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, dualLabeled).Clone()
		y, q, err := cve.SplitID(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		e.ID = cve.FormatID(y, q+500000)
		return &nvdclean.Delta{Added: []*nvdclean.Entry{e}}
	}},
	{"removed", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		return &nvdclean.Delta{Removed: []string{nth(t, s, i, v2Only).ID}}
	}},
	{"modified and removed, after another removal", true, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		w, x := nth(t, s, i, dualLabeled), nth(t, s, i+7, v2Only)
		if !cve.IDLess(w.ID, x.ID) {
			w, x = x, w
		}
		mod := x.Clone()
		mod.Descriptions[0].Value += " Withdrawn."
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{mod}, Removed: []string{w.ID, x.ID}}
	}},
	{"respelled", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only)
		y, q, err := cve.SplitID(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		re := e.Clone()
		re.ID = fmt.Sprintf("CVE-%d-%08d", y, q)
		return &nvdclean.Delta{Added: []*nvdclean.Entry{re}, Removed: []string{e.ID}}
	}},
	{"v3 score edit, retrains", true, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, dualLabeled).Clone()
		v3 := *e.V3
		v3.AttackVector = cvss.AttackNetwork
		if e.V3.AttackVector == cvss.AttackNetwork {
			v3.AttackVector = cvss.AttackLocal
		}
		e.V3 = &v3
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
	{"new vendor, re-surveys", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only).Clone()
		e.CPEs[0].Vendor = fmt.Sprintf("chainvendor%d", i)
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
	{"backportedV3 only, cleans equal", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only).Clone()
		score := 9.9
		e.PV3 = &score
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
	{"modifies an ID the snapshot lacks", false, func(t *testing.T, s *nvdclean.Snapshot, i int) *nvdclean.Delta {
		e := nth(t, s, i, v2Only).Clone()
		e.ID = cve.FormatID(2030, 1+i)
		return &nvdclean.Delta{Modified: []*nvdclean.Entry{e}}
	}},
}

func v2Only(e *nvdclean.Entry) bool {
	return e.V2 != nil && e.V3 == nil && len(e.CPEs) > 0 && len(e.Descriptions) > 0
}

func dualLabeled(e *nvdclean.Entry) bool {
	return e.V2 != nil && e.V3 != nil && len(e.Descriptions) > 0
}

// nth returns the entry of s that ok accepts i*37 entries on, wrapping
// around.
func nth(t *testing.T, s *nvdclean.Snapshot, i int, ok func(*nvdclean.Entry) bool) *nvdclean.Entry {
	t.Helper()
	for k := range s.Len() {
		if e := s.Entries[(i*37+k)%s.Len()]; ok(e) {
			return e
		}
	}
	t.Fatal("no entry to edit")
	return nil
}

// TestCleanDeltaCleanedDelta holds the cleaned-view delta CleanDelta
// records to Diff(prev.Cleaned, res.Cleaned) in every fixture mode and
// over a chain of 20 one-entry updates: description edits, additions
// after every ID and in the middle, a removal, a modification and a
// removal of one ID beside the removal of an earlier one, a respelled
// ID, a v3 edit that retrains and re-scores carried entries, a new
// vendor that re-surveys, an edit that cleans to the entry it replaces,
// and a modification of an ID the snapshot lacks. A Result from Clean
// or RestoreResult records none.
//
// Each step of the chain also holds the dataset fingerprint the run
// records, carried or hashed, to DatasetFingerprint of its view, and
// requires the engine to carry over unless the edit changes the
// training split. So does a change of the seed alone, with an edit and
// with an empty delta, which must change the fingerprint.
func TestCleanDeltaCleanedDelta(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []fixtureMode{mixedDelta, v2OnlyDelta, renameDelta, cweFlipDelta} {
		fix := newDeltaFixture(t, 2, mode)
		prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev.CleanedDelta != nil {
			t.Fatal("a Result from Clean records a cleaned-view delta")
		}
		res, err := nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertCleanedDelta(t, fmt.Sprintf("fixture mode %d", mode), prev, res)
	}

	fix := newDeltaFixture(t, 2, v2OnlyDelta)
	opts := fix.opts
	opts.Transport = nil
	prev, err := nvdclean.Clean(ctx, fix.old, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertFingerprint(t, "Clean", prev)
	for i := range 20 {
		edit := chainEdits[i%len(chainEdits)]
		label := fmt.Sprintf("edit %d (%s)", i, edit.name)
		d := edit.make(t, prev.Original, i)
		d.CapturedAt = prev.Original.CapturedAt.AddDate(0, 0, i+1)
		res, err := nvdclean.CleanDelta(ctx, prev, d, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertCleanedDelta(t, label, prev, res)
		assertFingerprint(t, label, res)
		if carried := res.Engine == prev.Engine; carried == edit.retrains {
			t.Errorf("%s: engine carried over %v, want %v", label, carried, !edit.retrains)
		}
		prev = res
	}
	restored, err := nvdclean.RestoreResult(prev.StoreCheckpoint(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.CleanedDelta != nil {
		t.Error("a Result from RestoreResult records a cleaned-view delta")
	}

	edit := chainEdits[0].make(t, prev.Original, 0)
	for _, d := range []*nvdclean.Delta{edit, nil} {
		reseeded := opts
		reseeded.Seed = opts.Seed + 1
		res, err := nvdclean.CleanDelta(ctx, prev, d, reseeded)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d to %d, delta of %d entries", opts.Seed, reseeded.Seed, d.Size())
		assertFingerprint(t, label, res)
		if res.StoreCheckpoint().State.Fingerprint == prev.StoreCheckpoint().State.Fingerprint {
			t.Errorf("%s: the fingerprint did not change with the seed", label)
		}
	}
}
