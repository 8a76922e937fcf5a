package nvdclean_test

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// deltaFixture splits a generated snapshot into an "old" capture plus
// a delta whose application reproduces the full snapshot.
type deltaFixture struct {
	full  *nvdclean.Snapshot
	old   *nvdclean.Snapshot
	delta *nvdclean.Delta
	opts  nvdclean.Options
}

// newDeltaFixture holds out roughly 5% of entries as the delta. With
// v2Only set, only entries without a v3 vector are held out, which
// leaves the dual-labeled training split untouched — the engine
// warm-start path. Otherwise the holdout is arbitrary and the fixture
// additionally modifies one surviving entry and removes another, so
// the delta exercises Added, Modified and Removed at once.
func newDeltaFixture(t *testing.T, concurrency int, v2Only bool) deltaFixture {
	t.Helper()
	full, truth, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := nvdclean.NewWebCorpus(full, truth.Disclosure)
	opts := nvdclean.Options{
		Transport:   corpus.Transport(),
		Concurrency: concurrency,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}

	target := full.Clone()
	old := &nvdclean.Snapshot{CapturedAt: full.CapturedAt}
	held := 0
	for i, e := range target.Entries {
		holdable := i%20 == 10 && held < target.Len()/20+1
		if holdable && v2Only && e.V3 != nil {
			holdable = false
		}
		if holdable {
			held++
			continue
		}
		old.Entries = append(old.Entries, full.Entries[i])
	}
	if held == 0 {
		t.Fatal("fixture held out no entries")
	}
	if !v2Only {
		// Modify one surviving entry's description and drop another,
		// so the delta carries all three change kinds.
		mod := target.Entries[3]
		mod.Descriptions[0].Value += " Stack-based buffer overflow variant."
		target.Entries = append(target.Entries[:7], target.Entries[8:]...)
	}
	delta := nvdclean.Diff(old, target)
	if delta.Empty() {
		t.Fatal("fixture produced an empty delta")
	}
	return deltaFixture{full: target, old: old, delta: delta, opts: opts}
}

// assertResultsEqual requires two Clean results to be bit-identical in
// every artifact the paper's pipeline produces.
func assertResultsEqual(t *testing.T, label string, got, want *nvdclean.Result) {
	t.Helper()
	if got.Original.Len() != want.Original.Len() {
		t.Fatalf("%s: original sizes differ: %d vs %d", label, got.Original.Len(), want.Original.Len())
	}
	for i, e := range want.Cleaned.Entries {
		g := got.Cleaned.Entries[i]
		if !g.Equal(e) {
			t.Fatalf("%s: cleaned entry %s differs", label, e.ID)
		}
	}
	if !maps.Equal(got.EstimatedDisclosure, want.EstimatedDisclosure) {
		t.Errorf("%s: estimated disclosure dates differ", label)
	}
	if !maps.Equal(got.LagDays, want.LagDays) {
		t.Errorf("%s: lag days differ", label)
	}
	if got.CrawlStats != want.CrawlStats {
		t.Errorf("%s: crawl stats %+v != %+v", label, got.CrawlStats, want.CrawlStats)
	}
	if !maps.Equal(got.VendorMap.Entries(), want.VendorMap.Entries()) {
		t.Errorf("%s: vendor maps differ", label)
	}
	if !maps.Equal(got.ProductMap.Entries(), want.ProductMap.Entries()) {
		t.Errorf("%s: product maps differ", label)
	}
	if !maps.Equal(got.VendorChanged, want.VendorChanged) ||
		!maps.Equal(got.ProductChanged, want.ProductChanged) {
		t.Errorf("%s: changed-CVE marks differ", label)
	}
	if *got.CWECorrection != *want.CWECorrection {
		t.Errorf("%s: CWE corrections %+v != %+v", label, *got.CWECorrection, *want.CWECorrection)
	}
	if (got.Backport == nil) != (want.Backport == nil) {
		t.Fatalf("%s: backport presence differs", label)
	}
	if got.Backport != nil && !maps.Equal(got.Backport.Scores, want.Backport.Scores) {
		t.Errorf("%s: backported scores differ (bitwise)", label)
	}
	if (got.Engine == nil) != (want.Engine == nil) {
		t.Fatalf("%s: engine presence differs", label)
	}
	if got.Engine != nil {
		if got.Engine.Best() != want.Engine.Best() {
			t.Errorf("%s: selected model %s != %s", label, got.Engine.Best(), want.Engine.Best())
		}
		if !reflect.DeepEqual(got.Engine.Evaluations(), want.Engine.Evaluations()) {
			t.Errorf("%s: engine evaluations differ", label)
		}
	}
}

// TestCleanDeltaEquivalenceInvariant is the incremental-cleaning
// guarantee alongside TestCleanConcurrencyInvariant: CleanDelta(prev,
// delta) is bit-identical to a full Clean of the merged snapshot, at
// any concurrency, both when the training split is untouched (engine
// warm start) and when the delta forces a retrain, including modified
// and removed entries.
func TestCleanDeltaEquivalenceInvariant(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		v2Only bool
	}{
		{"v2-only delta reuses engine", true},
		{"mixed delta retrains", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, tc.v2Only)
			prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			merged := fix.old.ApplyDelta(fix.delta)
			want, err := nvdclean.Clean(ctx, merged, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, conc := range []int{1, 4, 7} {
				opts := fix.opts
				opts.Concurrency = conc
				got, err := nvdclean.CleanDelta(ctx, prev, fix.delta, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := tc.name
				if conc != 4 {
					label += " (conc override)"
				}
				assertResultsEqual(t, label, got, want)
				if tc.v2Only && got.Engine != want.Engine {
					// Same bits either way, but the warm-start path
					// must actually have reused the previous engine.
					if got.Engine != prev.Engine {
						t.Error("v2-only delta did not reuse the previous engine")
					}
				}
			}
		})
	}
}

// TestRestoreResultEquivalence is the warm-restart oracle at the
// library surface. A Result restored from a committed checkpoint must
// equal the cold Clean the checkpoint was taken from, restoring must
// leave the checkpoint's original snapshot untouched, and a CleanDelta
// from either side must give equal Results. It covers runs with and
// without a transport, and with and without the severity stage.
func TestRestoreResultEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		transport bool
		severity  bool
	}{
		{"crawled with severity", true, true},
		{"crawled without severity", true, false},
		{"no transport with severity", false, true},
		{"no transport without severity", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, false)
			opts := fix.opts
			if !tc.transport {
				opts.Transport = nil
			}
			opts.SkipSeverity = !tc.severity
			cold, err := nvdclean.Clean(ctx, fix.old, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, _, _, _, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(cold.StoreCheckpoint()); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st, cp, _, _, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if cp == nil {
				t.Fatal("reopened store holds no checkpoint")
			}
			original := cp.Original.Clone()

			warm, err := nvdclean.RestoreResult(cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			nvdclean.ApplyBackport(cold.Cleaned, cold.Backport)
			assertResultsEqual(t, tc.name+" restored", warm, cold)
			for i, e := range original.Entries {
				if !e.Equal(cp.Original.Entries[i]) {
					t.Fatalf("restore modified original entry %s", e.ID)
				}
			}

			fromWarm, err := nvdclean.CleanDelta(ctx, warm, fix.delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			fromCold, err := nvdclean.CleanDelta(ctx, cold, fix.delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, tc.name+" delta after restore", fromWarm, fromCold)
		})
	}
}

// TestCleanDeltaChain applies two deltas in sequence and requires the
// final result to match a full Clean of the final snapshot — the
// shape of a long-lived daemon ingesting daily feed updates.
func TestCleanDeltaChain(t *testing.T) {
	ctx := context.Background()
	fix := newDeltaFixture(t, 4, true)

	// Split the delta's additions into two waves.
	half := len(fix.delta.Added) / 2
	if half == 0 {
		t.Skip("delta too small to split")
	}
	d1 := &nvdclean.Delta{CapturedAt: fix.delta.CapturedAt, Added: fix.delta.Added[:half]}
	d2 := &nvdclean.Delta{CapturedAt: fix.delta.CapturedAt, Added: fix.delta.Added[half:]}

	prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := nvdclean.CleanDelta(ctx, prev, d1, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nvdclean.CleanDelta(ctx, mid, d2, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	merged := fix.old.ApplyDelta(fix.delta)
	want, err := nvdclean.Clean(ctx, merged, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "chained deltas", got, want)
}

func TestCleanDeltaRejectsForeignResult(t *testing.T) {
	if _, err := nvdclean.CleanDelta(context.Background(), nil, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("nil prev should fail")
	}
	if _, err := nvdclean.CleanDelta(context.Background(), &nvdclean.Result{}, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("hand-built prev should fail")
	}
}
