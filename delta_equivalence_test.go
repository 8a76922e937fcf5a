package nvdclean_test

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
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

// fixtureMode selects the shape of a deltaFixture's delta.
type fixtureMode int

const (
	// mixedDelta holds out an arbitrary ~5% of entries, modifies one
	// surviving entry's description and removes another, so the delta
	// exercises Added, Modified and Removed at once.
	mixedDelta fixtureMode = iota
	// v2OnlyDelta holds out only entries without a v3 vector, which
	// leaves the dual-labeled training split untouched — the engine
	// warm-start path.
	v2OnlyDelta
	// renameDelta renames CPE names instead of holding entries out
	// (see renameNames), so the naming survey re-blocks and the vendor
	// map changes.
	renameDelta
)

// newDeltaFixture builds an old snapshot and the delta that turns it
// into the fixture's full one, shaped by mode.
func newDeltaFixture(t *testing.T, concurrency int, mode fixtureMode) deltaFixture {
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
		holdable := mode != renameDelta && i%20 == 10 && held < target.Len()/20+1
		if holdable && mode == v2OnlyDelta && e.V3 != nil {
			holdable = false
		}
		if holdable {
			held++
			continue
		}
		old.Entries = append(old.Entries, full.Entries[i])
	}
	switch mode {
	case mixedDelta:
		// Modify one surviving entry's description and drop another,
		// so the delta carries all three change kinds.
		mod := target.Entries[3]
		mod.Descriptions[0].Value += " Stack-based buffer overflow variant."
		target.Entries = append(target.Entries[:7], target.Entries[8:]...)
	case renameDelta:
		renameNames(t, old, target)
	}
	if held == 0 && mode != renameDelta {
		t.Fatal("fixture held out no entries")
	}
	delta := nvdclean.Diff(old, target)
	if delta.Empty() {
		t.Fatal("fixture produced an empty delta")
	}
	return deltaFixture{full: target, old: old, delta: delta, opts: opts}
}

// renameNames edits target, a deep copy of old, so that its delta
// renames CPE names and every rename shows in the cleaned view:
//   - entries of other vendors move to an alias of the vendor map until
//     it has more CVEs than every other name of its group, which flips
//     the group's canonical name;
//   - the first of them names a new separator variant of one of the
//     group's products, a product alias under the new canonical name;
//   - one entry moves to a new vendor extending its vendor's name,
//     which consolidates with it;
//   - the only CVE of one vendor is removed.
func renameNames(t *testing.T, old, target *nvdclean.Snapshot) {
	t.Helper()
	counts := old.VendorCVECount()
	vm, _ := consolidate(old)
	aliases := vm.Entries()
	var alias string
	var group map[string]bool
	need := 0
	for _, a := range slices.Sorted(maps.Keys(aliases)) {
		members := map[string]bool{aliases[a]: true}
		most := counts[aliases[a]]
		for b, to := range aliases {
			if to == aliases[a] {
				members[b] = true
				most = max(most, counts[b])
			}
		}
		if n := most - counts[a] + 1; alias == "" || n < need {
			alias, group, need = a, members, n
		}
	}
	if alias == "" {
		t.Fatal("fixture's vendor map has no alias")
	}
	var product string
	products := old.VendorProducts()
	for v := range group {
		for p := range products[v] {
			if strings.Contains(p, "_") && (product == "" || p < product) {
				product = p
			}
		}
	}
	if product == "" {
		t.Fatalf("%s's group lists no multi-token product", alias)
	}
	variant := strings.ReplaceAll(product, "_", "-")

	touched := make(map[string]bool)
	free := func(e *nvdclean.Entry) bool {
		if touched[e.ID] || len(e.CPEs) == 0 {
			return false
		}
		for _, v := range e.Vendors() {
			if group[v] {
				return false
			}
		}
		return true
	}
	newVendor := ""
	for _, e := range target.Entries {
		switch n := e.CPEs; {
		case !free(e):
		case need > 0:
			if len(touched) == 0 {
				n[0].Product = variant
			}
			n[0].Vendor = alias
			touched[e.ID] = true
			need--
		case newVendor == "" && counts[n[0].Vendor] >= 2:
			newVendor = n[0].Vendor + "_project"
			n[0].Vendor = newVendor
			touched[e.ID] = true
		}
	}
	for i, e := range target.Entries {
		if free(e) && len(e.Vendors()) == 1 && counts[e.CPEs[0].Vendor] == 1 {
			target.Entries = slices.Delete(target.Entries, i, i+1)
			break
		}
	}
	vm, pm := consolidate(target)
	if got := vm.Canonical(alias); got != alias {
		t.Fatalf("fixture renames do not make %s canonical (got %s)", alias, got)
	}
	if pm.Canonical(alias, variant) != pm.Canonical(alias, product) {
		t.Fatalf("fixture's new product %q does not consolidate with %q under %s", variant, product, alias)
	}
	if newVendor == "" || !vm.Mapped(newVendor) {
		t.Fatalf("fixture's new vendor %q does not consolidate", newVendor)
	}
}

// consolidate returns the vendor and product maps a Clean of snap
// consolidates.
func consolidate(snap *nvdclean.Snapshot) (*naming.Map, *naming.ProductMap) {
	vm := naming.AnalyzeVendors(snap).Consolidate(naming.HeuristicJudge{})
	renamed := snap.Clone()
	vm.Apply(renamed)
	return vm, naming.AnalyzeProducts(renamed).Consolidate(naming.HeuristicProductJudge{})
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
		name string
		mode fixtureMode
	}{
		{"v2-only delta reuses engine", v2OnlyDelta},
		{"mixed delta retrains", mixedDelta},
		{"renamed names re-survey", renameDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, tc.mode)
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
				if tc.mode == v2OnlyDelta && got.Engine != want.Engine {
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
			fix := newDeltaFixture(t, 4, mixedDelta)
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
	fix := newDeltaFixture(t, 4, v2OnlyDelta)

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

// TestCleanDeltaConcurrentOnOnePrev runs two CleanDeltas on one
// previous Result at once, then a third, and requires each to equal a
// cold Clean of the merged snapshot: a delta clean never writes to the
// Result it starts from, whose naming survey it copies on write. It
// runs in -short mode too, so the race detector checks that.
func TestCleanDeltaConcurrentOnOnePrev(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []fixtureMode{mixedDelta, v2OnlyDelta, renameDelta} {
		fix := newDeltaFixture(t, 2, mode)
		prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := nvdclean.Clean(ctx, fix.old.ApplyDelta(fix.delta), fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]*nvdclean.Result
		var errs [3]error
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
			}()
		}
		wg.Wait()
		got[2], errs[2] = nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			assertResultsEqual(t, fmt.Sprintf("mode %d, delta %d on one prev", mode, i+1), got[i], want)
		}
	}
}

func TestCleanDeltaRejectsForeignResult(t *testing.T) {
	if _, err := nvdclean.CleanDelta(context.Background(), nil, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("nil prev should fail")
	}
	if _, err := nvdclean.CleanDelta(context.Background(), &nvdclean.Result{}, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("hand-built prev should fail")
	}
}
