package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nvdclean"
	"nvdclean/internal/obs"
)

// ---- a line-by-line exposition-format parser for the tests ----

type promSample struct {
	name   string            // full sample name (family, or family_bucket/_sum/_count)
	labels map[string]string // includes le for buckets
	value  float64
}

type promFamily struct {
	help, typ string
	samples   []promSample
}

// parsePromText parses Prometheus text exposition format v0.0.4
// strictly enough to enforce the format invariants the satellite test
// pins: it fails the test on any line it cannot account for, on
// samples whose family was not declared first, and on duplicate
// HELP/TYPE declarations.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	var cur string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if f, dup := fams[name]; dup && f.help != "" {
				t.Fatalf("line %d: duplicate HELP for family %s", ln+1, name)
			}
			if fams[name] == nil {
				fams[name] = &promFamily{}
			}
			fams[name].help = help
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if f := fams[name]; f == nil || f.help == "" {
				t.Fatalf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if fams[name].typ != "" {
				t.Fatalf("line %d: duplicate TYPE for family %s", ln+1, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			fams[name].typ = typ
			cur = name
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			s := parsePromSample(t, ln+1, line)
			fam := sampleFamily(s.name, fams)
			if fam == "" {
				t.Fatalf("line %d: sample %s has no declared family", ln+1, s.name)
			}
			if fam != cur {
				t.Fatalf("line %d: sample %s appears outside its family block (%s active)", ln+1, s.name, cur)
			}
			fams[fam].samples = append(fams[fam].samples, s)
		}
	}
	for name, f := range fams {
		if f.typ == "" || f.help == "" {
			t.Fatalf("family %s missing HELP or TYPE", name)
		}
	}
	return fams
}

// sampleFamily maps a sample name to its declared family, accounting
// for histogram suffixes.
func sampleFamily(name string, fams map[string]*promFamily) string {
	if _, ok := fams[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f, ok := fams[base]; ok && f.typ == "histogram" {
				return base
			}
		}
	}
	return ""
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("line %d: unbalanced braces: %q", ln, line)
		}
		s.name = line[:i]
		for _, pair := range splitLabels(line[i+1 : j]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			s.labels[k] = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n").Replace(v[1 : len(v)-1])
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: sample without value: %q", ln, line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	s.name = strings.TrimSpace(s.name)
	s.value = v
	return s
}

// splitLabels splits a label block on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// labelSig returns a stable signature of a sample's labels minus le —
// the grouping key for one histogram series.
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%q;", k, labels[k])
	}
	return sb.String()
}

// checkHistograms asserts, for every histogram family, per series:
// buckets cumulative and non-decreasing in le order, a +Inf bucket
// equal to _count, and _sum present.
func checkHistograms(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for name, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		type series struct {
			buckets map[float64]float64 // le -> cumulative count
			inf     *float64
			sum     *float64
			count   *float64
		}
		bySig := map[string]*series{}
		get := func(sig string) *series {
			if bySig[sig] == nil {
				bySig[sig] = &series{buckets: map[float64]float64{}}
			}
			return bySig[sig]
		}
		for _, s := range f.samples {
			sig := labelSig(s.labels)
			switch {
			case s.name == name+"_bucket":
				le := s.labels["le"]
				if le == "" {
					t.Fatalf("%s: bucket without le: %v", name, s.labels)
				}
				if le == "+Inf" {
					v := s.value
					get(sig).inf = &v
					continue
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", name, le)
				}
				get(sig).buckets[bound] = s.value
			case s.name == name+"_sum":
				v := s.value
				get(sig).sum = &v
			case s.name == name+"_count":
				v := s.value
				get(sig).count = &v
			default:
				t.Fatalf("%s: stray sample %s in histogram family", name, s.name)
			}
		}
		for sig, se := range bySig {
			if se.inf == nil || se.sum == nil || se.count == nil {
				t.Fatalf("%s{%s}: missing +Inf bucket, _sum or _count", name, sig)
			}
			bounds := make([]float64, 0, len(se.buckets))
			for b := range se.buckets {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			prev := 0.0
			for _, b := range bounds {
				if se.buckets[b] < prev {
					t.Errorf("%s{%s}: bucket le=%g not cumulative (%g < %g)", name, sig, b, se.buckets[b], prev)
				}
				prev = se.buckets[b]
			}
			if *se.inf < prev {
				t.Errorf("%s{%s}: +Inf bucket %g below le=%g bucket %g", name, sig, *se.inf, bounds[len(bounds)-1], prev)
			}
			if *se.inf != *se.count {
				t.Errorf("%s{%s}: +Inf bucket %g != _count %g", name, sig, *se.inf, *se.count)
			}
		}
	}
}

// scrape fetches /metrics and parses it with the format checks on.
func scrape(t *testing.T, ts *httptest.Server) map[string]*promFamily {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePromText(t, string(body))
	checkHistograms(t, fams)
	return fams
}

// sumFamily adds up every sample of a counter/gauge family (across all
// label children).
func sumFamily(f *promFamily) float64 {
	var total float64
	for _, s := range f.samples {
		total += s.value
	}
	return total
}

// histCount returns the _count total of a histogram family across
// series.
func histCount(name string, f *promFamily) float64 {
	var total float64
	for _, s := range f.samples {
		if s.name == name+"_count" {
			total += s.value
		}
	}
	return total
}

// TestMetricsScrapeFormat is the scrape-format satellite: after real
// traffic on every route class, the full /metrics output must parse
// line-by-line — HELP/TYPE exactly once per family and before its
// samples, no duplicate families, histogram buckets cumulative with
// +Inf == _count and _sum present — and the key families of every
// layer must be present even in a store-less in-memory configuration.
func TestMetricsScrapeFormat(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Touch every route class so the labeled children exist: reads,
	// query, stats, probes, a 404 and a 400.
	id := snap.Entries[0].ID
	for _, path := range []string{
		"/cve/" + id, "/cve/" + id, "/cve/CVE-2098-9999",
		"/query?limit=3", "/query?bogus=1",
		"/stats", "/healthz", "/livez", "/readyz", "/no-such-route",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	fams := scrape(t, ts)
	for _, want := range []string{
		"nvdserve_http_requests_total",
		"nvdserve_http_requests_in_flight",
		"nvdserve_http_request_duration_seconds",
		"nvdserve_http_request_bytes_total",
		"nvdserve_http_response_bytes_total",
		"nvdserve_generation_sequence",
		"nvdserve_generation_age_seconds",
		"nvdserve_boot_epoch_seconds",
		"nvdserve_ready",
		"nvdserve_index_shards",
		"nvdserve_index_posting_bytes_resident",
		"nvdserve_store_generation",
		"nvdserve_store_commit_queue_depth",
		"nvdserve_store_checkpoint_seconds",
		"nvdserve_respcache_entry_hits_total",
		"nvdserve_respcache_query_hits_total",
		"nvdserve_respcache_not_modified_total",
		"nvdserve_ingest_delta_entries",
		"nvdserve_ingest_swap_seconds",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from scrape", want)
		}
	}

	// The request counter carries the route pattern, not raw URLs: two
	// /cve reads + the 404d one share the /cve/{id} children, and no
	// label value contains a concrete CVE ID.
	reqs := fams["nvdserve_http_requests_total"]
	var cve200, cve404, q400, fallback404 float64
	for _, s := range reqs.samples {
		if strings.Contains(s.labels["route"], "CVE-") {
			t.Errorf("raw URL leaked into route label: %v", s.labels)
		}
		switch {
		case s.labels["route"] == "/cve/{id}" && s.labels["code"] == "200":
			cve200 = s.value
		case s.labels["route"] == "/cve/{id}" && s.labels["code"] == "404":
			cve404 = s.value
		case s.labels["route"] == "/query" && s.labels["code"] == "400":
			q400 = s.value
		case s.labels["route"] == "other" && s.labels["code"] == "404":
			fallback404 = s.value
		}
	}
	if cve200 < 2 || cve404 != 1 || q400 != 1 || fallback404 != 1 {
		t.Errorf("request children: cve200=%g cve404=%g q400=%g fallback404=%g", cve200, cve404, q400, fallback404)
	}
	// Latency histograms observed exactly as many requests as counted.
	if got := histCount("nvdserve_http_request_duration_seconds", fams["nvdserve_http_request_duration_seconds"]); got != sumFamily(reqs) {
		t.Errorf("duration count %g != requests total %g", got, sumFamily(reqs))
	}
	// Response bytes flowed for the served routes.
	var respBytes float64
	for _, s := range fams["nvdserve_http_response_bytes_total"].samples {
		respBytes += s.value
	}
	if respBytes <= 0 {
		t.Error("no response bytes accounted")
	}
	// Ready and generation gauges reflect the loaded server.
	if v := fams["nvdserve_ready"].samples[0].value; v != 1 {
		t.Errorf("nvdserve_ready = %g, want 1", v)
	}
	if v := fams["nvdserve_generation_entries"].samples[0].value; int(v) != snap.Len() {
		t.Errorf("generation entries gauge = %g, want %d", v, snap.Len())
	}
}

// TestMetricsSurviveSwap is the swap-safety acceptance: counters and
// histograms accumulated before a POST /feed generation swap must
// carry through it — the registry lives beside the swapped pointer,
// so a swap changes gauge readings, never resets a series.
func TestMetricsSurviveSwap(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Warm the read path so entry-cache hits and request counters have
	// non-zero values to survive.
	id := snap.Entries[0].ID
	for i := 0; i < 3; i++ {
		resp, err := ts.Client().Get(ts.URL + "/cve/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	before := scrape(t, ts)
	reqBefore := sumFamily(before["nvdserve_http_requests_total"])
	hitsBefore := sumFamily(before["nvdserve_respcache_entry_hits_total"])
	durBefore := histCount("nvdserve_http_request_duration_seconds", before["nvdserve_http_request_duration_seconds"])
	if reqBefore == 0 || hitsBefore == 0 {
		t.Fatalf("no traffic recorded before swap: requests=%g hits=%g", reqBefore, hitsBefore)
	}
	if v := before["nvdserve_generation_sequence"].samples[0].value; v != 1 {
		t.Fatalf("generation before swap = %g", v)
	}

	postFeed(t, ts, feedUpdate(t, snap))

	after := scrape(t, ts)
	if v := after["nvdserve_generation_sequence"].samples[0].value; v != 2 {
		t.Errorf("generation after swap = %g, want 2", v)
	}
	if got := sumFamily(after["nvdserve_http_requests_total"]); got <= reqBefore {
		t.Errorf("request counter reset across swap: %g -> %g", reqBefore, got)
	}
	if got := sumFamily(after["nvdserve_respcache_entry_hits_total"]); got < hitsBefore {
		t.Errorf("entry-hit counter reset across swap: %g -> %g", hitsBefore, got)
	}
	if got := histCount("nvdserve_http_request_duration_seconds", after["nvdserve_http_request_duration_seconds"]); got <= durBefore {
		t.Errorf("duration histogram reset across swap: %g -> %g", durBefore, got)
	}
	// The ingest histograms observed exactly one swap.
	if got := histCount("nvdserve_ingest_swap_seconds", after["nvdserve_ingest_swap_seconds"]); got != 1 {
		t.Errorf("ingest swap histogram count = %g, want 1", got)
	}
	if got := histCount("nvdserve_ingest_delta_entries", after["nvdserve_ingest_delta_entries"]); got != 1 {
		t.Errorf("ingest delta histogram count = %g, want 1", got)
	}
}

// TestProbes pins the liveness/readiness split: /livez is process-up
// (200 before the first generation and while draining), /readyz gates
// on a serving generation and flips 503 with Retry-After during drain
// — while ordinary routes keep serving — and /healthz aliases /readyz.
func TestProbes(t *testing.T) {
	// A server with no generation yet: live, not ready.
	empty := newServer(nvdclean.Options{})
	ets := httptest.NewServer(empty.handler())
	defer ets.Close()
	var probe map[string]any
	if code := getJSON(t, ets, "/livez", &probe); code != http.StatusOK {
		t.Errorf("/livez before load = %d, want 200", code)
	}
	resp, err := ets.Client().Get(ets.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before load = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 carries no Retry-After")
	}

	// A loaded server: ready on /readyz and on the /healthz alias.
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for _, path := range []string{"/readyz", "/healthz"} {
		var ready map[string]any
		if code := getJSON(t, ts, path, &ready); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
		if ready["status"] != "ok" || int(ready["entries"].(float64)) != snap.Len() {
			t.Errorf("%s = %v", path, ready)
		}
	}

	// Draining: readiness flips 503 with Retry-After, liveness and the
	// read path keep answering (the drain window exists so traffic
	// already routed here still completes).
	srv.draining.Store(true)
	for _, path := range []string{"/readyz", "/healthz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
			t.Errorf("%s while draining = %d %v, want 503 draining", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s drain 503 carries no Retry-After", path)
		}
	}
	if code := getJSON(t, ts, "/livez", &probe); code != http.StatusOK {
		t.Errorf("/livez while draining = %d, want 200", code)
	}
	var view cveView
	if code := getJSON(t, ts, "/cve/"+snap.Entries[0].ID, &view); code != http.StatusOK {
		t.Errorf("read path refused during drain: %d", code)
	}
	fams := scrape(t, ts)
	if v := fams["nvdserve_ready"].samples[0].value; v != 0 {
		t.Errorf("nvdserve_ready while draining = %g, want 0", v)
	}
	srv.draining.Store(false)
}

// TestPprofMux sanity-checks the optional profiling mux wiring without
// binding a real listener.
func TestPprofMux(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}
