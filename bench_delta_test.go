// Incremental-cleaning benchmarks: full Clean of a merged snapshot vs
// CleanDelta of the 5% feed delta that produced it, per the
// PERFORMANCE.md recipe (recorded in BENCH_2.json), plus the
// allocation bound on a one-entry CleanDelta and the size bound on a
// committed checkpoint.
package nvdclean_test

import (
	"context"
	"testing"

	"nvdclean"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// deltaBench holds the shared 95/5 fixture: a previous Clean result,
// the held-out delta, and the merged snapshot a full re-clean sees.
type deltaBench struct {
	prev   *nvdclean.Result
	delta  *nvdclean.Delta
	merged *nvdclean.Snapshot
	opts   nvdclean.Options
}

var deltaBenchFixture *deltaBench

// benchDelta builds (once) a small-scale snapshot, holds out ~5% of
// its v2-only entries as the delta — the shape of a real NVD daily
// update, where new CVEs arrive without v3 scores — and pre-cleans the
// remaining 95%.
func benchDelta(b *testing.B) *deltaBench {
	b.Helper()
	if deltaBenchFixture != nil {
		return deltaBenchFixture
	}
	full, truth, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	corpus := nvdclean.NewWebCorpus(full, truth.Disclosure)
	opts := nvdclean.Options{
		Transport:   corpus.Transport(),
		Concurrency: 16,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
	old := &nvdclean.Snapshot{CapturedAt: full.CapturedAt}
	held := 0
	want := full.Len() / 20 // 5%
	for i, e := range full.Entries {
		if held < want && i%20 == 10 && e.V3 == nil {
			held++
			continue
		}
		old.Entries = append(old.Entries, e)
	}
	delta := nvdclean.Diff(old, full)
	if delta.Empty() {
		b.Fatal("empty benchmark delta")
	}
	prev, err := nvdclean.Clean(context.Background(), old, opts)
	if err != nil {
		b.Fatal(err)
	}
	deltaBenchFixture = &deltaBench{prev: prev, delta: delta, merged: full, opts: opts}
	return deltaBenchFixture
}

// BenchmarkCleanFullMerged times the status-quo response to a feed
// update: re-clean the whole merged snapshot from scratch.
func BenchmarkCleanFullMerged(b *testing.B) {
	f := benchDelta(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nvdclean.Clean(context.Background(), f.merged, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanDelta times the incremental response: reprocess only
// the 5% delta on top of the previous result (bit-identical output,
// enforced by TestCleanDeltaEquivalenceInvariant).
func BenchmarkCleanDelta(b *testing.B) {
	f := benchDelta(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nvdclean.CleanDelta(context.Background(), f.prev, f.delta, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCleanDeltaAllocGuard is the ingest-allocation regression bound:
// a one-entry edit through CleanDelta must allocate within a recorded
// budget of heap objects per snapshot entry. A description edit names
// no new vendor or product, so the naming survey carries over and only
// consolidation re-runs; what it still pays per entry is the
// snapshot-wide work a delta cannot yet skip: the per-entry replays,
// the result maps and the consolidation rewrite of the cleaned view.
// An edit that names a new vendor and product falls back to blocking
// every vendor name and re-surveys that vendor's products, so it has a
// budget of its own. Raising either bound is an ingest regression —
// justify it in the commit that does.
func TestCleanDeltaAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	opts := nvdclean.Options{
		Concurrency: 4,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
	prev, err := nvdclean.Clean(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	var target *nvdclean.Entry
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil && len(e.CPEs) > 0 {
			target = e
			break
		}
	}
	if target == nil {
		t.Fatal("no v2-only entry to edit")
	}
	for _, tc := range []struct {
		name              string
		maxAllocsPerEntry float64
		edit              func(*nvdclean.Entry)
	}{
		// Measured 0.20 at 3K entries; 6.9 when every delta re-ran the
		// naming survey, 15.2 with the deep copy.
		{"description edit", 1.0, func(e *nvdclean.Entry) {
			e.Descriptions[0].Value += " Exploited in the wild."
		}},
		// Measured 4.8 at 3K entries: vendor blocking re-runs over
		// every name.
		{"new vendor and product", 10.0, func(e *nvdclean.Entry) {
			e.CPEs[0].Vendor = "allocguard_vendor"
			e.CPEs[0].Product = "allocguard_product"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := target.Clone()
			tc.edit(mod)
			delta := &nvdclean.Delta{CapturedAt: snap.CapturedAt, Modified: []*nvdclean.Entry{mod}}
			var runErr error
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := nvdclean.CleanDelta(context.Background(), prev, delta, opts); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			perEntry := allocs / float64(snap.Len())
			t.Logf("CleanDelta of one entry: %.0f allocations over %d entries = %.2f per entry", allocs, snap.Len(), perEntry)
			if perEntry > tc.maxAllocsPerEntry {
				t.Fatalf("CleanDelta of one entry costs %.2f allocations per entry, budget %.1f", perEntry, tc.maxAllocsPerEntry)
			}
		})
	}
}

// TestCheckpointSizeGuard is the checkpoint-size regression bound: the
// committed checkpoint (no index) of a 3K-entry Clean must stay within
// a recorded budget of bytes per snapshot entry. A checkpoint stores
// the original feed, the consolidation maps and the reuse state, never
// the cleaned feed they determine; storing that too would double it.
// The reuse state lists §4.4 outcomes only for the entries the fix
// corrected; one record per entry would add 54 bytes per entry.
// The bytes are deterministic, so the guard runs in -short mode as
// well. Raising this bound is a format regression — justify it in the
// commit that does.
func TestCheckpointSizeGuard(t *testing.T) {
	const maxBytesPerEntry = 1400.0 // measured 1,299; 1,353 with every §4.4 outcome, 2,672 with the cleaned feed too
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvdclean.Clean(context.Background(), snap, nvdclean.Options{
		Concurrency: 4,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Commit(res.StoreCheckpoint()); err != nil {
		t.Fatal(err)
	}
	rm, err := st.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range rm.Files {
		total += f.Size
	}
	perEntry := float64(total) / float64(snap.Len())
	t.Logf("checkpoint: %d bytes in %d files over %d entries = %.0f bytes/entry", total, len(rm.Files), snap.Len(), perEntry)
	if perEntry > maxBytesPerEntry {
		t.Fatalf("checkpoint costs %.0f bytes/entry, budget %.0f", perEntry, maxBytesPerEntry)
	}
}
