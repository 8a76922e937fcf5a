package store

import (
	"slices"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// generatedSnapshot generates n CVEs with vendors at 16% of the CVE
// count, the shape of nvdbench's data.
func generatedSnapshot(t *testing.T, n int) *cve.Snapshot {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumCVEs, cfg.NumVendors = n, n*16/100
	snap, _, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// editedCopy returns snap with the first v2-only entry naming a CPE
// replaced by an edited clone, and that clone.
func editedCopy(t *testing.T, snap *cve.Snapshot, edit func(*cve.Entry)) (*cve.Snapshot, *cve.Entry) {
	t.Helper()
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil && len(e.CPEs) > 0 && len(e.Descriptions) > 0 {
			mod := e.Clone()
			edit(mod)
			return snap.ApplyDelta(&cve.Delta{Modified: []*cve.Entry{mod}}), mod
		}
	}
	t.Fatal("no v2-only entry to edit")
	return nil, nil
}

// TestIndexUpdateAllocGuard bounds what Index.Update costs for the
// one-entry edits a feed brings. A description edit changes no key, so
// Update stages nothing, keeps the ID table and shares every shard: it
// must allocate the same heap objects at 3K and at 20K entries, and at
// most 20. A CPE edit must re-encode the postings of the keys it gains or
// loses and share every other posting of the previous index, pointer
// for pointer, and give the index a rebuild gives.
func TestIndexUpdateAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	const maxAllocs = 20
	sizes := [2]int{3000, 20000}
	var allocs [2]float64
	for i, n := range sizes {
		snap := generatedSnapshot(t, n)
		ix := BuildIndex(snap, 2)
		next, _ := editedCopy(t, snap, func(e *cve.Entry) { e.Descriptions[0].Value += " Exploited in the wild." })
		d := cve.Diff(snap, next)
		prev := snap.ByID
		var got *Index
		var err error
		allocs[i] = testing.AllocsPerRun(20, func() { got, err = ix.Update(d, prev, next, 2) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Update of a description edit at %d entries: %.0f allocations", n, allocs[i])
		if &got.ids[0] != &ix.ids[0] || got.shards != ix.shards {
			t.Errorf("at %d entries, a description edit copied the ID table or a shard", n)
		}
	}
	if allocs[0] != allocs[1] || allocs[1] > maxAllocs {
		t.Errorf("Update of a description edit allocates %.0f objects at %d entries and %.0f at %d, want the same and at most %d",
			allocs[0], sizes[0], allocs[1], sizes[1], maxAllocs)
	}

	snap := generatedSnapshot(t, sizes[0])
	ix := BuildIndex(snap, 2)
	next, mod := editedCopy(t, snap, func(e *cve.Entry) {
		e.CPEs = slices.Clone(e.CPEs)
		e.CPEs[0].Product = "allocguard_product"
	})
	before := snap.ByID(mod.ID)
	got, err := ix.Update(cve.Diff(snap, next), snap.ByID, next, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexEqual(t, got, BuildIndex(next, 2))
	lost, gained := keyDiff(entryKeys(before), entryKeys(mod))
	if len(lost) == 0 || len(gained) == 0 {
		t.Fatalf("the CPE edit changes no key: lost %v, gained %v", lost, gained)
	}
	changed := make(map[key]bool)
	for _, k := range append(lost, gained...) {
		changed[k] = true
	}
	reencoded := 0
	for s := range got.shards {
		for k, p := range got.shards[s].post {
			switch old := ix.shards[s].post[k]; {
			case changed[k]:
				reencoded++
				if p == old {
					t.Errorf("the posting of %+v, a key the edit changes, was not re-encoded", k)
				}
			case p != old:
				t.Errorf("the posting of %+v, a key the edit keeps, was re-encoded", k)
			}
		}
	}
	t.Logf("a CPE edit re-encoded %d postings for %d changed keys", reencoded, len(changed))
}

// TestBuildIndexAllocGuard bounds BuildIndex's heap objects per entry
// on generated data: an entry's keys come in one slice, deduplicated in
// place, with no seen-maps. Measured 10.02 at 3K entries: the key
// slice, the year and CWE key strings, the per-chunk ordinal lists and
// the encoded postings.
func TestBuildIndexAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	const maxPerEntry = 10.5
	snap := generatedSnapshot(t, 3000)
	allocs := testing.AllocsPerRun(3, func() { BuildIndex(snap, 2) })
	perEntry := allocs / float64(snap.Len())
	t.Logf("BuildIndex of %d entries: %.0f allocations, %.2f per entry", snap.Len(), allocs, perEntry)
	if perEntry > maxPerEntry {
		t.Errorf("BuildIndex allocates %.2f objects per entry, want at most %.2f", perEntry, maxPerEntry)
	}
}
