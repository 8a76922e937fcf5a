// Package obs is nvdclean's dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms collected in a Registry
// that renders the Prometheus text exposition format (v0.0.4).
//
// The package exists so the serving daemon can expose a scrape-able
// time-series surface without importing a metrics client library. The
// design mirrors the slice of the Prometheus data model the daemon
// needs and nothing more:
//
//   - Counter / Gauge: a single atomic int64. Counters only go up;
//     gauges move both ways. CounterFunc / GaugeFunc variants sample a
//     closure at scrape time, which is how pre-existing atomics (the
//     respcache.Metrics counters, store accessors) are re-exported
//     without duplicating their state.
//   - Histogram: fixed upper-bound buckets chosen at construction,
//     one atomic count per bucket plus an atomic float64 sum (CAS
//     loop). Observe is lock-free and allocation-free.
//   - Vecs: label-parameterized families. With(...) interns the child
//     under its label values; callers on hot paths cache the returned
//     child so the steady state is pure atomic arithmetic.
//
// Every instrument is registered in a Registry keyed by family name;
// WritePrometheus renders families sorted by name, each with exactly
// one HELP/TYPE header, children sorted by label signature — the
// deterministic output the scrape-format tests parse.
//
// Swap-safety contract: instruments hold no reference to any serving
// generation. The daemon's generation swaps replace a state pointer;
// the registry and every counter/histogram live beside — not inside —
// that pointer, so a swap can never reset a time series (the same
// ownership split respcache.Metrics already uses for /stats).
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; negative n is a programming error
// and is dropped (a counter that goes down poisons rate() queries).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed cumulative buckets and
// tracks their sum. Buckets are upper bounds in increasing order; an
// implicit +Inf bucket catches everything past the last bound.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative); cumulated at render
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d: %v", i, buckets))
		}
	}
	u := make([]float64, len(buckets))
	copy(u, buckets)
	return &Histogram{upper: u, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value. Lock-free: one bucket increment and one
// CAS loop folding v into the float sum. There is no separate total
// counter — the count is the sum of the buckets, computed at read time,
// which keeps the hot path one contended atomic shorter and makes
// `+Inf == _count` hold by construction.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists here are ≤ ~24 entries and latency
	// observations concentrate in the first few, so a branchy binary
	// search buys nothing.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with upper (+Inf
// last), plus count and sum. Buckets are cumulated under increasing
// reads so the rendered series is monotone even mid-Observe.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		buckets[i] = cum
	}
	return buckets, cum, h.Sum()
}

// LatencyBuckets spans 1µs to 10s — wide enough for cached in-memory
// reads (single-digit µs) and cold pipeline swaps (seconds) alike.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous — the usual shape for byte and entry-count
// distributions.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// sampler is one renderable time series (or histogram series group).
type sampler interface {
	// sample returns the instantaneous scalar for counters/gauges;
	// histograms render through the type switch in writeFamily.
	sample() float64
}

func (c *Counter) sample() float64 { return float64(c.v.Load()) }
func (g *Gauge) sample() float64   { return float64(g.v.Load()) }

// funcSampler samples a closure at scrape time.
type funcSampler struct {
	fn func() float64
}

func (f funcSampler) sample() float64 { return f.fn() }

// labelSep joins label values into a child key; it cannot occur in a
// (sane) label value, so joined keys never collide.
const labelSep = "\x1f"

// vec is the shared child-interning machinery of the *Vec types.
type vec[T any] struct {
	mu       sync.RWMutex
	children map[string]*T
	make     func() *T
	labels   []string
}

func newVec[T any](labels []string, mk func() *T) *vec[T] {
	return &vec[T]{children: make(map[string]*T), make: mk, labels: labels}
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vec wants %d label values (%v), got %d", len(v.labels), v.labels, len(values)))
	}
	key := joinLabels(values)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = v.make()
	v.children[key] = c
	return c
}

func joinLabels(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, s := range values {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range values {
		if i > 0 {
			b = append(b, labelSep...)
		}
		b = append(b, s...)
	}
	return string(b)
}

// CounterVec is a counter family parameterized by labels.
type CounterVec struct {
	*vec[Counter]
}

// With returns (interning on first use) the child for the given label
// values. Hot paths should cache the child: With costs a read-lock and
// a map lookup, the child itself is one atomic.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// HistogramVec is a histogram family parameterized by labels; every
// child shares the family's bucket bounds.
type HistogramVec struct {
	*vec[Histogram]
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }
