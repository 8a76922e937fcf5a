package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.")
	g := r.Gauge("test_depth", "Depth.")
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters only go up
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_events_total Events.\n# TYPE test_events_total counter\ntest_events_total 5\n",
		"# HELP test_depth Depth.\n# TYPE test_depth gauge\ntest_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("test_func_total", "Sampled.", func() float64 { return n })
	r.GaugeFunc("test_age_seconds", "Age.", func() float64 { return 1.5 })
	n++
	out := render(t, r)
	if !strings.Contains(out, "test_func_total 42\n") {
		t.Errorf("CounterFunc not sampled at scrape time:\n%s", out)
	}
	if !strings.Contains(out, "test_age_seconds 1.5\n") {
		t.Errorf("GaugeFunc value missing:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	// Binary-exact observations so the rendered sum is exact.
	for _, v := range []float64{0.0078125, 0.0078125, 0.0625, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.578125; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	out := render(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 2`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_sum 5.578125",
		"test_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundary pins the le contract: an observation exactly on
// a bound lands in that bucket (le is <=).
func TestHistogramBoundary(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	buckets, count, _ := h.snapshot()
	if buckets[0] != 1 || buckets[1] != 2 || buckets[2] != 2 || count != 2 {
		t.Errorf("buckets = %v count = %d", buckets, count)
	}
}

func TestVecs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	hv := r.HistogramVec("test_duration_seconds", "Duration.", []float64{0.1}, "route")
	cv.With("/cve/{id}", "200").Add(3)
	cv.With("/query", "400").Inc()
	if c := cv.With("/cve/{id}", "200"); c.Value() != 3 {
		t.Errorf("interned child not reused: %d", c.Value())
	}
	hv.With("/query").Observe(0.05)
	out := render(t, r)
	for _, want := range []string{
		`test_requests_total{route="/cve/{id}",code="200"} 3`,
		`test_requests_total{route="/query",code="400"} 1`,
		`test_duration_seconds_bucket{route="/query",le="0.1"} 1`,
		`test_duration_seconds_sum{route="/query"} 0.05`,
		`test_duration_seconds_count{route="/query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Children render sorted by label signature.
	if strings.Index(out, `route="/cve/{id}",code="200"`) > strings.Index(out, `route="/query",code="400"`) {
		t.Errorf("vec children not sorted:\n%s", out)
	}
}

func TestFamiliesSortedSingleHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_b_total", "B.")
	r.Counter("test_a_total", "A.")
	out := render(t, r)
	if strings.Index(out, "test_a_total") > strings.Index(out, "test_b_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	if strings.Count(out, "# TYPE test_a_total") != 1 || strings.Count(out, "# HELP test_a_total") != 1 {
		t.Errorf("family headers not exactly once:\n%s", out)
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_weird", "Help with \\ and\nnewline.", "l")
	v.With("quote\" back\\slash\nnl").Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP test_weird Help with \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_weird{l="quote\" back\\slash\nnl"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_dup_total", "First.")
	mustPanic("duplicate family", func() { r.Counter("test_dup_total", "Second.") })
	mustPanic("invalid name", func() { r.Counter("0bad", "Bad.") })
	mustPanic("invalid label", func() { r.CounterVec("test_ok_total", "OK.", "0bad") })
	mustPanic("non-increasing buckets", func() { r.Histogram("test_h", "H.", []float64{1, 1}) })
	mustPanic("wrong label arity", func() {
		v := r.CounterVec("test_arity_total", "A.", "a", "b")
		v.With("only-one")
	})
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 4, 5)
	want := []float64{1, 4, 16, 64, 256}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentObserve hammers one histogram, counter and vec from
// many goroutines while scraping — run under -race in CI; asserts the
// final totals and that every intermediate scrape parses sane.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "C.")
	h := r.Histogram("test_conc_seconds", "H.", LatencyBuckets)
	v := r.CounterVec("test_conc_vec_total", "V.", "worker")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := v.With(string(rune('a' + w)))
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) * 1e-5)
				child.Inc()
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}
	}()
	wg.Wait()
	close(stop)
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	buckets, count, _ := h.snapshot()
	if buckets[len(buckets)-1] != count {
		t.Errorf("+Inf bucket %d != count %d", buckets[len(buckets)-1], count)
	}
}
