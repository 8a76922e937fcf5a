package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricType is the TYPE line vocabulary of the exposition format.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named metric family: a help string, a type, and either
// a single unlabeled series or a vec of labeled children.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	// Exactly one of single / childSnap is used. childSnap reads the
	// owning vec's children under its lock, returning stable key order.
	single    any // sampler or *Histogram
	childSnap func() (keys []string, children []any)
}

// Registry collects families and renders them in the Prometheus text
// exposition format v0.0.4. Families are registered once (duplicate
// names panic — two owners of one time series is a programming error)
// and live for the process lifetime.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	r.families[f.name] = f
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: typeCounter, single: c})
	return c
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — the re-export path for counters that already exist as
// atomics elsewhere (fn must be monotone and safe for concurrent use).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeCounter, single: funcSampler{fn}})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: typeGauge, single: g})
	return g
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge, single: funcSampler{fn}})
}

// Histogram registers and returns a new histogram with the given
// bucket upper bounds (strictly increasing; +Inf implied).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, typ: typeHistogram, single: h})
	return h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{newVec(labels, func() *Counter { return &Counter{} })}
	r.register(&family{name: name, help: help, typ: typeCounter, labels: labels, childSnap: snapVec(v.vec)})
	return v
}

// HistogramVec registers a labeled histogram family; children share
// the bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing: %v", buckets))
		}
	}
	bounds := append([]float64(nil), buckets...)
	v := &HistogramVec{newVec(labels, func() *Histogram { return newHistogram(bounds) })}
	r.register(&family{name: name, help: help, typ: typeHistogram, labels: labels, childSnap: snapVec(v.vec)})
	return v
}

// snapVec captures a vec's children in sorted key order for rendering.
func snapVec[T any](v *vec[T]) func() ([]string, []any) {
	return func() ([]string, []any) {
		v.mu.RLock()
		keys := make([]string, 0, len(v.children))
		for k := range v.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = v.children[k]
		}
		v.mu.RUnlock()
		return keys, children
	}
}

// WritePrometheus renders every registered family in the text
// exposition format v0.0.4: families sorted by name, one HELP and one
// TYPE line each, labeled children sorted by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		writeFamily(bw, f)
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, f *family) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(string(f.typ))
	w.WriteByte('\n')

	if f.single != nil {
		writeSeries(w, f, "", f.single)
		return
	}
	keys, children := f.childSnap()
	for i, key := range keys {
		writeSeries(w, f, key, children[i])
	}
}

// writeSeries renders one child (or the unlabeled single series). key
// is the labelSep-joined label values.
func writeSeries(w *bufio.Writer, f *family, key string, child any) {
	var values []string
	if len(f.labels) > 0 {
		values = strings.Split(key, labelSep)
	}
	switch c := child.(type) {
	case *Histogram:
		buckets, count, sum := c.snapshot()
		for i, b := range buckets {
			le := "+Inf"
			if i < len(c.upper) {
				le = formatFloat(c.upper[i])
			}
			writeName(w, f.name+"_bucket", f.labels, values, "le", le)
			w.WriteByte(' ')
			w.WriteString(strconv.FormatUint(b, 10))
			w.WriteByte('\n')
		}
		writeName(w, f.name+"_sum", f.labels, values, "", "")
		w.WriteByte(' ')
		w.WriteString(formatFloat(sum))
		w.WriteByte('\n')
		writeName(w, f.name+"_count", f.labels, values, "", "")
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(count, 10))
		w.WriteByte('\n')
	case sampler:
		writeName(w, f.name, f.labels, values, "", "")
		w.WriteByte(' ')
		w.WriteString(formatFloat(c.sample()))
		w.WriteByte('\n')
	default:
		panic(fmt.Sprintf("obs: unrenderable child %T in family %q", child, f.name))
	}
}

// writeName renders `name{l1="v1",...}` with an optional extra label
// (the histogram `le`).
func writeName(w *bufio.Writer, name string, labels, values []string, extraK, extraV string) {
	w.WriteString(name)
	if len(labels) == 0 && extraK == "" {
		return
	}
	w.WriteByte('{')
	sep := false
	for i, l := range labels {
		if sep {
			w.WriteByte(',')
		}
		sep = true
		w.WriteString(l)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraK != "" {
		if sep {
			w.WriteByte(',')
		}
		w.WriteString(extraK)
		w.WriteString(`="`)
		w.WriteString(extraV)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatFloat renders a sample value: integral values without a
// decimal point (the common case for counters), +Inf/-Inf/NaN per the
// exposition grammar, everything else in Go's shortest 'g' form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ContentType is the exposition format content type of WritePrometheus.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP makes the registry a scrape endpoint handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = r.WritePrometheus(w)
}
