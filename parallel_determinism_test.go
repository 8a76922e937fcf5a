package nvdclean_test

import (
	"context"
	"maps"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/experiments"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
)

// cleanAt runs the full pipeline on a fresh tiny snapshot with the
// given concurrency. The generator is seeded, so every call sees
// identical input.
func cleanAt(t *testing.T, concurrency int) *nvdclean.Result {
	t.Helper()
	snap, truth, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := nvdclean.NewWebCorpus(snap, truth.Disclosure)
	res, err := nvdclean.Clean(context.Background(), snap, nvdclean.Options{
		Transport:   corpus.Transport(),
		Concurrency: concurrency,
		Models:      []predict.ModelKind{predict.ModelLR, predict.ModelDNN},
		ModelConfig: predict.ModelConfig{Epochs: 4, Compact: true, Seed: 1},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCleanConcurrencyInvariant is the tentpole guarantee: a Clean run
// at concurrency 1 and at concurrency N produce identical results —
// crawl estimates, consolidation maps, CWE corrections, and backported
// scores (bitwise, including the chunk-reduced neural gradients).
func TestCleanConcurrencyInvariant(t *testing.T) {
	base := cleanAt(t, 1)
	for _, conc := range []int{4, 7} {
		got := cleanAt(t, conc)
		if !maps.Equal(got.EstimatedDisclosure, base.EstimatedDisclosure) {
			t.Errorf("concurrency %d: estimated disclosure dates differ", conc)
		}
		if !maps.Equal(got.LagDays, base.LagDays) {
			t.Errorf("concurrency %d: lag days differ", conc)
		}
		if got.CrawlStats != base.CrawlStats {
			t.Errorf("concurrency %d: crawl stats %+v != %+v", conc, got.CrawlStats, base.CrawlStats)
		}
		if !maps.Equal(got.VendorMap.Entries(), base.VendorMap.Entries()) {
			t.Errorf("concurrency %d: vendor maps differ", conc)
		}
		if !maps.Equal(got.ProductMap.Entries(), base.ProductMap.Entries()) {
			t.Errorf("concurrency %d: product maps differ", conc)
		}
		if !maps.Equal(got.VendorChanged, base.VendorChanged) ||
			!maps.Equal(got.ProductChanged, base.ProductChanged) {
			t.Errorf("concurrency %d: changed-CVE marks differ", conc)
		}
		if *got.CWECorrection != *base.CWECorrection {
			t.Errorf("concurrency %d: CWE corrections %+v != %+v",
				conc, *got.CWECorrection, *base.CWECorrection)
		}
		if !maps.Equal(got.Backport.Scores, base.Backport.Scores) {
			t.Errorf("concurrency %d: backported scores differ (bitwise)", conc)
		}
		if got.Engine.Best() != base.Engine.Best() {
			t.Errorf("concurrency %d: selected model %s != %s",
				conc, got.Engine.Best(), base.Engine.Best())
		}
	}
}

// peakTransport wraps a RoundTripper and records the peak number of
// requests in flight. Each request sleeps briefly so that requests
// issued concurrently overlap.
type peakTransport struct {
	rt             http.RoundTripper
	inFlight, peak atomic.Int32
}

func (p *peakTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	return p.rt.RoundTrip(req)
}

// TestCleanStageBudget pins Clean's worker split: the crawl, naming
// and CWE branches start together, so the crawl runs on a third of the
// budget rather than all of it.
func TestCleanStageBudget(t *testing.T) {
	snap, truth, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pt := &peakTransport{rt: nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport()}
	_, err = nvdclean.Clean(context.Background(), snap, nvdclean.Options{
		Transport:    pt,
		Concurrency:  6,
		SkipSeverity: true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := pt.peak.Load(); p < 1 || p > 2 {
		t.Fatalf("peak concurrent crawl requests = %d, want 1 or 2 (a budget of 6 over 3 branches)", p)
	}
}

// TestExperimentsConcurrencyInvariant renders the full experiment
// suite at concurrency 1 and N and requires byte-identical tables.
func TestExperimentsConcurrencyInvariant(t *testing.T) {
	render := func(concurrency int) map[string]string {
		suite, err := experiments.NewSuite(context.Background(), experiments.Options{
			Scale:       gen.TinyConfig(),
			Models:      []predict.ModelKind{predict.ModelLR},
			ModelConfig: predict.ModelConfig{Seed: 1},
			Concurrency: concurrency,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, r := range suite.RenderAll() {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			out[r.ID] = r.Output
		}
		return out
	}
	base := render(1)
	got := render(4)
	if len(base) != len(got) {
		t.Fatalf("rendered %d experiments at c=4, want %d", len(got), len(base))
	}
	for id, want := range base {
		if got[id] != want {
			t.Errorf("experiment %s renders differently at concurrency 4", id)
		}
	}
}
