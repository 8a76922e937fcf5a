package nvdclean

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
)

// fastOpts keeps the end-to-end pipeline quick in tests.
func fastOpts(transport bool, snap *Snapshot, truth *Truth) Options {
	opts := Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Concurrency: 16,
		Seed:        1,
	}
	if transport {
		opts.Transport = NewWebCorpus(snap, truth.Disclosure).Transport()
	}
	return opts
}

func TestCleanEndToEnd(t *testing.T) {
	cfg := SmallScale()
	snap, truth, err := GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(true, snap, truth)
	input := snap.Clone()
	res, err := Clean(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The original is untouched, by the pipeline and by the checkpoint
	// that materializes backported scores into the cleaned entries.
	if res.Original != snap {
		t.Error("Original should be the input snapshot")
	}
	requireEntriesEqual(t, "input after Clean", snap.Entries, input.Entries)
	requireDistinctEntries(t, res)
	res.StoreCheckpoint()
	requireEntriesEqual(t, "input after StoreCheckpoint", snap.Entries, input.Entries)

	// So are a delta's inputs: the previous Result, whose cleaned
	// entries share data with the next run's, and the delta's entries.
	// The delta removes one entry, adds one and rewrites three others
	// whose names consolidate.
	delta := &Delta{CapturedAt: snap.CapturedAt, Removed: []string{snap.Entries[0].ID}}
	for _, e := range snap.Entries[1:] {
		if len(delta.Modified) < 3 && (res.VendorChanged[e.ID] || res.ProductChanged[e.ID]) {
			m := e.Clone()
			m.Descriptions[0].Value += " Exploited in the wild."
			delta.Modified = append(delta.Modified, m)
		}
	}
	if len(delta.Modified) == 0 {
		t.Fatal("no consolidated entry to modify")
	}
	added := snap.Entries[0].Clone()
	added.ID = "CVE-2018-99999"
	delta.Added = []*Entry{added}
	delta.Sort()
	prevOriginal, prevCleaned := res.Original.Clone(), res.Cleaned.Clone()
	deltaEntries := append(append([]*Entry(nil), delta.Added...), delta.Modified...)
	deltaCopy := (&Snapshot{Entries: deltaEntries}).Clone()
	next, err := CleanDelta(context.Background(), res, delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireDistinctEntries(t, next)
	next.StoreCheckpoint()
	requireEntriesEqual(t, "previous original after CleanDelta", res.Original.Entries, prevOriginal.Entries)
	requireEntriesEqual(t, "previous cleaned after CleanDelta", res.Cleaned.Entries, prevCleaned.Entries)
	requireEntriesEqual(t, "delta entries after CleanDelta", deltaEntries, deltaCopy.Entries)

	// §4.1: estimated dates cover the snapshot and never precede truth.
	if len(res.EstimatedDisclosure) != snap.Len() {
		t.Errorf("estimated dates = %d, want %d", len(res.EstimatedDisclosure), snap.Len())
	}
	var recovered, lagged int
	for _, e := range snap.Entries {
		est := res.EstimatedDisclosure[e.ID]
		disc := truth.Disclosure[e.ID]
		if est.Before(disc) {
			t.Fatalf("%s: estimate before true disclosure", e.ID)
		}
		if disc.Before(e.Published) {
			lagged++
			if est.Equal(disc) {
				recovered++
			}
		}
	}
	if lagged > 0 && float64(recovered)/float64(lagged) < 0.75 {
		t.Errorf("date recovery = %d/%d", recovered, lagged)
	}

	// §4.2: maps built and applied to the clone only.
	if res.VendorMap.Len() == 0 {
		t.Error("no vendor consolidations")
	}
	if len(res.VendorChanged) == 0 {
		t.Error("no vendor-changed CVEs")
	}
	aliasSurvives := false
	for _, e := range res.Cleaned.Entries {
		for _, n := range e.CPEs {
			if res.VendorMap.Mapped(n.Vendor) {
				aliasSurvives = true
			}
		}
	}
	if aliasSurvives {
		t.Error("mapped vendor names survive in cleaned snapshot")
	}

	// §4.4: CWE corrections happened.
	if res.CWECorrection == nil || res.CWECorrection.Corrected == 0 {
		t.Error("no CWE corrections")
	}

	// §4.3: every v2-only CVE got a predicted score.
	var v2only int
	for _, e := range res.Cleaned.Entries {
		if e.V2 != nil && e.V3 == nil {
			v2only++
		}
	}
	if len(res.Backport.Scores) != v2only {
		t.Errorf("backported %d, want %d", len(res.Backport.Scores), v2only)
	}
	if res.Engine.Evaluation(res.Engine.Best()) == nil {
		t.Error("engine has no evaluation")
	}
	if res.CrawlStats.Fetched == 0 {
		t.Error("crawl stats empty")
	}
}

// requireEntriesEqual fails unless got holds, entry by entry, the same
// data as want.
func requireEntriesEqual(t *testing.T, what string, got, want []*Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: entry %s was modified", what, want[i].ID)
		}
	}
}

// requireDistinctEntries fails if a cleaned entry is also an original
// entry: the pipeline and ApplyBackport replace fields of the cleaned
// entries in place, so sharing one would rewrite the original.
func requireDistinctEntries(t *testing.T, res *Result) {
	t.Helper()
	orig := make(map[*Entry]bool, res.Original.Len())
	for _, e := range res.Original.Entries {
		orig[e] = true
	}
	for _, e := range res.Cleaned.Entries {
		if orig[e] {
			t.Fatalf("cleaned entry %s is the original entry", e.ID)
		}
	}
}

func TestCleanWithoutTransport(t *testing.T) {
	snap, _, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clean(context.Background(), snap, Options{
		SkipSeverity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EstimatedDisclosure) != 0 {
		t.Error("no transport: dates should be empty")
	}
	if res.Engine != nil || res.Backport != nil {
		t.Error("SkipSeverity: engine should be nil")
	}
	if res.VendorMap.Len() == 0 {
		t.Error("naming step should still run")
	}
}

// TestApplyBackportOneBlock requires ApplyBackport to materialize a
// fresh view's scores in one allocation and applying again to write
// and allocate nothing.
func TestApplyBackportOneBlock(t *testing.T) {
	snap, truth, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clean(context.Background(), snap, fastOpts(false, snap, truth))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backport.Scores) == 0 {
		t.Fatal("no backported scores to apply")
	}
	fresh := testing.AllocsPerRun(3, func() {
		for _, e := range res.Cleaned.Entries {
			e.PV3 = nil
		}
		ApplyBackport(res.Cleaned, res.Backport)
	})
	if fresh != 1 {
		t.Errorf("applying %d scores to a fresh view allocates %.0f objects, want 1", len(res.Backport.Scores), fresh)
	}
	written := make([]*float64, len(res.Cleaned.Entries))
	for i, e := range res.Cleaned.Entries {
		written[i] = e.PV3
	}
	if again := testing.AllocsPerRun(3, func() { ApplyBackport(res.Cleaned, res.Backport) }); again != 0 {
		t.Errorf("applying again allocates %.0f objects, want 0", again)
	}
	for i, e := range res.Cleaned.Entries {
		if e.PV3 != written[i] {
			t.Fatalf("applying again rewrote %s's score", e.ID)
		}
	}
}

func TestCleanContextCancellation(t *testing.T) {
	snap, truth, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("pre-canceled without transport", func(t *testing.T) {
		// No crawl stage at all: cancellation must be observed by the
		// naming+CWE stages, which historically ignored ctx.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Clean(ctx, snap, Options{SkipSeverity: true})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("expired deadline with transport", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := Clean(ctx, snap, fastOpts(true, snap, truth))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

func TestCleanEmptySnapshot(t *testing.T) {
	if _, err := Clean(context.Background(), &Snapshot{}, Options{}); err == nil {
		t.Error("empty snapshot should fail")
	}
	if _, err := Clean(context.Background(), nil, Options{}); err == nil {
		t.Error("nil snapshot should fail")
	}
}

func TestCleanedCWEFeedsSeverityModel(t *testing.T) {
	// The pipeline corrects CWE fields before training, so entries that
	// were NVD-CWE-Other but had an evaluator hint must be typed in the
	// cleaned snapshot.
	snap, truth, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clean(context.Background(), snap, Options{SkipSeverity: true})
	if err != nil {
		t.Fatal(err)
	}
	var fixed int
	for _, e := range res.Cleaned.Entries {
		orig := res.Original.ByID(e.ID)
		if orig.Typed() || e.Typed() == orig.Typed() {
			continue
		}
		fixed++
		if e.CWEs[0] != truth.TrueCWE[e.ID] {
			t.Errorf("%s: corrected to %v, truth %v", e.ID, e.CWEs[0], truth.TrueCWE[e.ID])
		}
	}
	if fixed == 0 {
		t.Error("no entries became typed")
	}
}

func TestFeedRoundTripThroughPublicAPI(t *testing.T) {
	cfg := SmallScale()
	cfg.NumCVEs = 100
	cfg.NumVendors = 30
	snap, _, err := GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFeed(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != snap.Len() {
		t.Errorf("round trip %d entries, want %d", back.Len(), snap.Len())
	}
}

func TestRegistryAccessibleViaInternal(t *testing.T) {
	// Sanity: the cwe registry the pipeline uses has the paper's class
	// count.
	if got := cwe.NewRegistry().Len(); got != 151 {
		t.Errorf("registry classes = %d, want 151", got)
	}
}
