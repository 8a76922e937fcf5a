// Incremental-cleaning benchmarks: full Clean of a merged snapshot vs
// CleanDelta of the 5% feed delta that produced it, per the
// PERFORMANCE.md recipe (recorded in BENCH_2.json), and the in-process
// steps of a one-entry post, plus the allocation bound on a one-entry
// CleanDelta, the size and allocation bounds on a committed checkpoint,
// the allocation bounds on reading and restoring one and on writing the
// reuse state, and the checkpoint feed codec's and state encoder's
// benchmarks.
package nvdclean_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"nvdclean"
	"nvdclean/internal/cve"
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

// allocGuardOpts are the options the CleanDelta allocation guards
// clean under: the LR model alone and no transport.
func allocGuardOpts() nvdclean.Options {
	return nvdclean.Options{
		Concurrency: 4,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
}

// editTarget returns the first v2-only entry of snap that names a CPE:
// the shape of a new NVD entry, which the engine backports.
func editTarget(t testing.TB, snap *nvdclean.Snapshot) *nvdclean.Entry {
	t.Helper()
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil && len(e.CPEs) > 0 {
			return e
		}
	}
	t.Fatal("no v2-only entry to edit")
	return nil
}

// editDescription appends a sentence to an entry's first description:
// an edit that names no new vendor, product or CWE type.
func editDescription(e *nvdclean.Entry) {
	e.Descriptions[0].Value += " Exploited in the wild."
}

// cleanDeltaAllocs returns the heap objects a CleanDelta on prev
// allocates for a delta modifying one entry: target as edit changes
// a clone of it.
func cleanDeltaAllocs(t *testing.T, prev *nvdclean.Result, target *nvdclean.Entry, edit func(*nvdclean.Entry)) float64 {
	t.Helper()
	mod := target.Clone()
	edit(mod)
	delta := &nvdclean.Delta{CapturedAt: prev.Original.CapturedAt, Modified: []*nvdclean.Entry{mod}}
	opts := allocGuardOpts()
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := nvdclean.CleanDelta(context.Background(), prev, delta, opts); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestCleanDeltaAllocGuard is the ingest-allocation regression bound:
// a one-entry edit through CleanDelta must allocate within a recorded
// budget of heap objects per snapshot entry. A description edit names
// no new vendor or product, so the naming survey and both
// consolidation maps carry over, every entry the delta does not name
// keeps its previous cleaned *Entry, and the per-ID maps are shared
// while no value changes: what it pays is a constant, and its size
// guard is TestCleanDeltaAllocSizeGuard. An edit that names a new
// vendor and product falls back to blocking every vendor name and
// re-surveys that vendor's products, so it has a budget of its own.
// Raising either bound is an ingest regression — justify it in the
// commit that does.
func TestCleanDeltaAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	prev, err := nvdclean.Clean(context.Background(), snap, allocGuardOpts())
	if err != nil {
		t.Fatal(err)
	}
	target := editTarget(t, snap)
	for _, tc := range []struct {
		name              string
		maxAllocsPerEntry float64
		edit              func(*nvdclean.Entry)
	}{
		// Measured 0.024 (73 objects) at 3K entries; 0.19 when every
		// delta copied every entry struct and re-applied both maps to
		// the copies, 6.9 when it also re-ran the naming survey, 15.2
		// with the deep copy.
		{"description edit", 0.036, editDescription},
		// Measured 4.7 at 3K entries: vendor blocking re-runs over
		// every name.
		{"new vendor and product", 10.0, func(e *nvdclean.Entry) {
			e.CPEs[0].Vendor = "allocguard_vendor"
			e.CPEs[0].Product = "allocguard_product"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := cleanDeltaAllocs(t, prev, target, tc.edit)
			perEntry := allocs / float64(snap.Len())
			t.Logf("CleanDelta of one entry: %.0f allocations over %d entries = %.3f per entry", allocs, snap.Len(), perEntry)
			if perEntry > tc.maxAllocsPerEntry {
				t.Fatalf("CleanDelta of one entry costs %.3f allocations per entry, budget %.3f", perEntry, tc.maxAllocsPerEntry)
			}
		})
	}
}

// TestCleanDeltaAllocSizeGuard requires a one-entry description edit
// to cost CleanDelta the same heap objects at any snapshot size: at
// 20K entries at most 1.25x what it costs at 3K, under the same
// generator settings (vendors at 16% of the CVE count, as nvdbench's
// data). Nothing an edit that moves no name tally allocates may grow
// with the entries it does not name. Re-deriving the whole cleaned
// view cost 5.1x (3,178 objects against 619).
func TestCleanDeltaAllocSizeGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	const maxRatio = 1.25
	var allocs [2]float64
	sizes := [2]int{3000, 20000}
	for i, n := range sizes {
		cfg := nvdclean.PaperScale()
		cfg.NumCVEs, cfg.NumVendors = n, n*16/100
		snap, _, err := nvdclean.GenerateSnapshot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := nvdclean.Clean(context.Background(), snap, allocGuardOpts())
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = cleanDeltaAllocs(t, prev, editTarget(t, snap), editDescription)
		t.Logf("CleanDelta of a description edit at %d entries: %.0f allocations", n, allocs[i])
	}
	if allocs[1] > maxRatio*allocs[0] {
		t.Errorf("CleanDelta of a description edit allocates %.0f objects at %d entries, over %.2fx the %.0f at %d", allocs[1], sizes[1], maxRatio, allocs[0], sizes[0])
	}
}

// BenchmarkOneEntryPost times the in-process steps of a one-entry post
// on a 20K-CVE generation (vendors at 16% of the CVE count, the LR model
// alone, no transport): CleanDelta of a description edit, taking the
// cleaned-view delta it records, and Index.Update with that delta. Each
// iteration edits the Result and index of the one before, as a daemon's
// posts chain.
func BenchmarkOneEntryPost(b *testing.B) {
	ctx := context.Background()
	cfg := nvdclean.PaperScale()
	cfg.NumCVEs, cfg.NumVendors = 20000, 3200
	snap, _, err := nvdclean.GenerateSnapshot(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := allocGuardOpts()
	prev, err := nvdclean.Clean(ctx, snap, opts)
	if err != nil {
		b.Fatal(err)
	}
	ix := store.BuildIndex(prev.Cleaned, opts.Concurrency)
	target := editTarget(b, snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := target.Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" Edit %d.", i)
		res, err := nvdclean.CleanDelta(ctx, prev, &nvdclean.Delta{Modified: []*nvdclean.Entry{mod}}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ix, err = ix.Update(res.CleanedDelta, prev.Cleaned.ByID, res.Cleaned, opts.Concurrency); err != nil {
			b.Fatal(err)
		}
		prev = res
	}
}

// TestCheckpointSizeGuard is the checkpoint-size regression bound: the
// committed checkpoint (no index) of a 3K-entry Clean must stay within
// a recorded budget of bytes per snapshot entry. A checkpoint stores
// the original feed, the naming survey and the reuse state, never the
// cleaned feed they determine; storing that too would double it.
// The reuse state lists §4.4 outcomes only for the entries the fix
// corrected; one record per entry would add 54 bytes per entry.
// The bytes are deterministic, so the guard runs in -short mode as
// well. Raising this bound is a format regression — justify it in the
// commit that does.
func TestCheckpointSizeGuard(t *testing.T) {
	const maxBytesPerEntry = 1400.0 // measured 1,303; 1,299 with the consolidation maps in place of the survey, 1,353 with every §4.4 outcome, 2,672 with the cleaned feed too
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

// TestCommitAllocGuard is the checkpoint-commit allocation bound: a
// Store.Commit of a 3K-entry Clean's checkpoint, with its query index,
// must stay within a recorded budget of heap objects per snapshot
// entry, and the feed encoding inside it must allocate a constant
// number of objects, at 400 entries as at 3K. The encoder appends each
// entry's bytes to one reused buffer and streams them through a 64 KiB
// writer; building a JSON tree per entry, or buffering the whole
// document, would break both bounds. Raising either bound is an ingest
// regression — justify it in the commit that does.
func TestCommitAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	// Measured 0.33 per entry at 3K entries; 0.36 with the two
	// consolidation maps in place of the naming survey, 1.66 when
	// json.Encoder wrote state.json, and 30.8 when the feed writer also
	// built an itemJSON tree per entry for it.
	const maxCommitAllocsPerEntry = 0.5
	// Measured 2 at both sizes (the write buffer and the entry buffer);
	// the tree-building writer allocated 10,701 at 400 entries and
	// 87,317 at 3K.
	const maxFeedAllocs = 16
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
	cp := res.StoreCheckpoint()
	cp.Index = store.BuildIndex(res.Cleaned, 4)
	st, _, _, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var commitErr error
	allocs := testing.AllocsPerRun(3, func() {
		if err := st.Commit(cp); err != nil {
			commitErr = err
		}
	})
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	perEntry := allocs / float64(snap.Len())
	t.Logf("Store.Commit: %.0f allocations over %d entries = %.2f per entry", allocs, snap.Len(), perEntry)
	if perEntry > maxCommitAllocsPerEntry {
		t.Errorf("Store.Commit costs %.2f allocations per entry, budget %.1f", perEntry, maxCommitAllocsPerEntry)
	}
	for _, n := range []int{400, snap.Len()} {
		feed := &nvdclean.Snapshot{CapturedAt: res.Original.CapturedAt, Entries: res.Original.Entries[:n]}
		var writeErr error
		allocs := testing.AllocsPerRun(5, func() {
			if err := cve.WriteFeedCompact(io.Discard, feed); err != nil {
				writeErr = err
			}
		})
		if writeErr != nil {
			t.Fatal(writeErr)
		}
		t.Logf("WriteFeedCompact of %d entries: %.0f allocations", n, allocs)
		if allocs > maxFeedAllocs {
			t.Errorf("WriteFeedCompact of %d entries allocates %.0f times, budget %d", n, allocs, maxFeedAllocs)
		}
	}
}

// TestStateEncodeAllocGuard is the reuse-state encoder's allocation
// bound, on the state a 3K-entry Clean persists (1,888 scores and 64
// §4.4 records) and on the part of it that covers the first 400
// entries. WriteJSON must allocate one constant number of objects at
// both sizes: it appends each map entry's bytes to one reused buffer,
// streams them through a 64 KiB writer, and sorts each map's keys in
// one list. Encoding through json.Encoder would break the bound.
// Raising it is a commit regression — justify it in the commit that
// does.
func TestStateEncodeAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	// Measured 4 at both sizes (the two write buffers and a key list
	// per map); json.Encoder allocated 3,906 at 3K.
	const maxEncodeAllocs = 16
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
	full := res.StoreCheckpoint().State
	part := *full
	part.CWEFix = make(map[string]predict.EntryCorrection)
	part.Backport = make(map[string]float64)
	for _, e := range snap.Entries[:400] {
		if c, ok := full.CWEFix[e.ID]; ok {
			part.CWEFix[e.ID] = c
		}
		if s, ok := full.Backport[e.ID]; ok {
			part.Backport[e.ID] = s
		}
	}
	var encodeAllocs []float64
	for _, st := range []*store.State{&part, full} {
		var writeErr error
		allocs := testing.AllocsPerRun(5, func() {
			if err := st.WriteJSON(io.Discard); err != nil {
				writeErr = err
			}
		})
		if writeErr != nil {
			t.Fatal(writeErr)
		}
		t.Logf("WriteJSON of %d scores and %d records: %.0f allocations", len(st.Backport), len(st.CWEFix), allocs)
		if allocs > maxEncodeAllocs {
			t.Errorf("WriteJSON of %d scores allocates %.0f times, budget %d", len(st.Backport), allocs, maxEncodeAllocs)
		}
		encodeAllocs = append(encodeAllocs, allocs)
	}
	if encodeAllocs[0] != encodeAllocs[1] {
		t.Errorf("WriteJSON allocates %.0f times for the 400-entry state and %.0f for the 3K one, want one constant", encodeAllocs[0], encodeAllocs[1])
	}
}

// TestReadFeedAllocGuard is the feed decoding allocation bound: a
// ReadFeed of the 3K-entry snapshot, compact as checkpoints store it
// and indented as WriteFeed writes it, must stay within a recorded
// budget of heap objects per entry. The decoder builds each entry
// straight from the bytes and copies each list once at its exact
// length; decoding through an itemJSON tree, or a strings.Builder per
// CPE attribute, would break the bound. Raising it is a boot, restart
// and ingest regression — justify it in the commit that does.
func TestReadFeedAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	// Measured 14.9 per entry in both forms; 69.3 when ReadFeed decoded
	// an itemJSON tree by reflection.
	const maxAllocsPerEntry = 20
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer, *cve.Snapshot) error{
		"compact":  cve.WriteFeedCompact,
		"indented": cve.WriteFeed,
	} {
		var buf bytes.Buffer
		if err := write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		var readErr error
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := cve.ReadFeed(bytes.NewReader(buf.Bytes())); err != nil {
				readErr = err
			}
		})
		if readErr != nil {
			t.Fatal(readErr)
		}
		perEntry := allocs / float64(snap.Len())
		t.Logf("ReadFeed, %s: %.0f allocations over %d entries = %.2f per entry", name, allocs, snap.Len(), perEntry)
		if perEntry > maxAllocsPerEntry {
			t.Errorf("ReadFeed of the %s feed costs %.2f allocations per entry, budget %d", name, perEntry, maxAllocsPerEntry)
		}
	}
}

// committedSmallScale cleans the 3K-entry snapshot with the LR model
// alone, commits the Result's checkpoint, and returns the options and
// the Result with the checkpoint the store loads back.
func committedSmallScale(t *testing.T) (nvdclean.Options, *nvdclean.Result, *store.Checkpoint) {
	t.Helper()
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	opts := allocGuardOpts()
	res, err := nvdclean.Clean(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(res.StoreCheckpoint()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st, cp, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	return opts, res, cp
}

// TestRestoreAllocGuard is the restore allocation bound: RestoreResult
// of a committed 3K-entry checkpoint, under the options it was
// committed with, must stay within a recorded budget of heap objects
// per entry. The restore is CleanDelta of an empty delta: the naming
// stages carry the checkpoint's survey over, and severity replays its
// engine and scores. Surveying names at restore instead would add
// about 21 objects per entry. Raising the bound is a restart and
// replica-bootstrap regression — justify it in the commit that does.
func TestRestoreAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	// Measured 0.18 per entry at 3K entries; 0.120 when the naming
	// stages applied the checkpoint's consolidation maps, which left
	// the first CleanDelta to survey every name.
	const maxAllocsPerEntry = 1.0
	opts, res, cp := committedSmallScale(t)
	snap := res.Original
	var restoreErr error
	var restored *nvdclean.Result
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if restored, err = nvdclean.RestoreResult(cp, opts); err != nil {
			restoreErr = err
		}
	})
	if restoreErr != nil {
		t.Fatal(restoreErr)
	}
	if restored.Engine != cp.Engine {
		t.Fatal("restore under the committing options retrained the engine")
	}
	perEntry := allocs / float64(snap.Len())
	t.Logf("RestoreResult: %.0f allocations over %d entries = %.3f per entry", allocs, snap.Len(), perEntry)
	if perEntry > maxAllocsPerEntry {
		t.Errorf("RestoreResult costs %.3f allocations per entry, budget %.1f", perEntry, maxAllocsPerEntry)
	}
}

// TestRestoreThenCleanDeltaAllocGuard bounds the first post after a
// restart or a replica bootstrap: a one-entry description edit through
// CleanDelta on a Result restored from a committed 3K-entry checkpoint
// must allocate within 1.5x of the same CleanDelta on the Clean Result
// the checkpoint came from. The checkpoint carries the naming survey,
// so both derive theirs in O(delta); when it carried the consolidation
// maps instead, the restored Result surveyed every name again, about
// 120 times the allocations.
func TestRestoreThenCleanDeltaAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode: race builds count allocations differently")
	}
	const maxRatio = 1.5
	opts, res, cp := committedSmallScale(t)
	restored, err := nvdclean.RestoreResult(cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := editTarget(t, res.Original)
	allocs := func(prev *nvdclean.Result) float64 { return cleanDeltaAllocs(t, prev, target, editDescription) }
	carried, afterRestore := allocs(res), allocs(restored)
	t.Logf("CleanDelta of one entry: %.0f allocations on the Clean Result, %.0f on the restored one", carried, afterRestore)
	if afterRestore > maxRatio*carried {
		t.Errorf("CleanDelta of one entry after a restore costs %.0f allocations, over %.1fx the %.0f on the Clean Result", afterRestore, maxRatio, carried)
	}
}

// BenchmarkReadFeed times the decoding of the 3K-entry snapshot's
// checkpoint feed, the bytes BenchmarkWriteFeedCompact writes.
func BenchmarkReadFeed(b *testing.B) {
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cve.WriteFeedCompact(&buf, snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := cve.ReadFeed(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFeedCompact times the checkpoint feed encoding of the
// 3K-entry snapshot.
func BenchmarkWriteFeedCompact(b *testing.B) {
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := cve.WriteFeedCompact(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteState times WriteJSON of the reuse state a 3K-entry
// Clean persists.
func BenchmarkWriteState(b *testing.B) {
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	res, err := nvdclean.Clean(context.Background(), snap, nvdclean.Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := res.StoreCheckpoint().State
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := st.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
