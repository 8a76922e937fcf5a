package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvdclean"
)

// getRaw performs one GET with optional If-None-Match, returning the
// exact status, headers and body bytes — the read-path tests compare
// wire bytes, not decoded values.
func getRaw(t *testing.T, ts *httptest.Server, path, ifNoneMatch string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// etagFor returns the validator of the compact or pretty
// representation as the string a response's ETag header holds.
func (st *serveState) etagFor(pretty bool) string {
	return st.etagHeader(pretty)[0]
}

// queryURL renders a parsed parameter set back into a /query URL.
func queryURL(p queryParams) string {
	v := url.Values{}
	if p.Vendor != "" {
		v.Set("vendor", p.Vendor)
	}
	if p.Product != "" {
		v.Set("product", p.Product)
	}
	if p.HasCWE {
		v.Set("cwe", p.CWE.String())
	}
	if p.HasSeverity {
		v.Set("severity", p.Severity.String())
	}
	if p.Year != 0 {
		v.Set("year", strconv.Itoa(p.Year))
	}
	v.Set("limit", strconv.Itoa(p.limit))
	v.Set("offset", strconv.Itoa(p.offset))
	return "/query?" + v.Encode()
}

// TestReadCacheEquivalence is the read-path acceptance invariant:
// every cached response — first hit (encode + fill), second hit
// (cache), and bytes seeded across incremental generation swaps — is
// byte-identical to a fresh render of the serving state. The sweep
// covers every /cve/{id} and the full /query parameter grid, across
// two incremental swaps, so carried-forward entry bytes are checked
// against the *new* generation's render.
func TestReadCacheEquivalence(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	checkGen := func(tag string) {
		t.Helper()
		st := srv.cur.Load()
		for _, e := range st.res.Cleaned.Entries {
			fresh := encodeJSON(st.view(e), false)
			for pass := 0; pass < 2; pass++ { // miss-or-seeded, then hit
				code, h, body := getRaw(t, ts, "/cve/"+e.ID, "")
				if code != http.StatusOK {
					t.Fatalf("%s: /cve/%s pass %d = %d", tag, e.ID, pass, code)
				}
				if !bytes.Equal(body, fresh) {
					t.Fatalf("%s: /cve/%s pass %d: cached bytes differ from fresh render\ncached: %s\nfresh:  %s",
						tag, e.ID, pass, body, fresh)
				}
				if h.Get("ETag") != st.etagFor(false) || h.Get("Cache-Control") == "" {
					t.Fatalf("%s: /cve/%s missing validator headers: %v", tag, e.ID, h)
				}
			}
		}
		for _, p := range paramGrid(st) {
			if p.HasCWE && p.CWE == 0 {
				continue // grid found no concrete CWE in this snapshot
			}
			fresh := encodeJSON(st.queryIndexed(p), false)
			for pass := 0; pass < 2; pass++ {
				code, _, body := getRaw(t, ts, queryURL(p), "")
				if code != http.StatusOK {
					t.Fatalf("%s: %s pass %d = %d", tag, queryURL(p), pass, code)
				}
				if !bytes.Equal(body, fresh) {
					t.Fatalf("%s: %s pass %d: cached bytes differ from fresh render\ncached: %s\nfresh:  %s",
						tag, queryURL(p), pass, body, fresh)
				}
			}
		}
	}

	checkGen("generation 1")

	// Swap 1: one added + one modified entry. The sweep above filled
	// the whole entry cache, so this swap seeds every untouched ID and
	// the next sweep compares those carried bytes to the new
	// generation's fresh render.
	postFeed(t, ts, feedUpdate(t, snap))
	if g := srv.cur.Load().generation; g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	checkGen("generation 2")

	// Swap 2: modify a different entry, re-prove everything again.
	st := srv.cur.Load()
	mod := st.res.Original.Entries[1].Clone()
	mod.Descriptions[0].Value += " Second wave."
	postFeed(t, ts, &nvdclean.Snapshot{
		CapturedAt: st.res.Original.CapturedAt.Add(48 * time.Hour),
		Entries:    []*nvdclean.Entry{mod},
	})
	if g := srv.cur.Load().generation; g != 3 {
		t.Fatalf("generation = %d, want 3", g)
	}
	checkGen("generation 3")
}

// TestETagConditional pins the conditional-serving contract: a
// matching If-None-Match costs a bodiless 304 carrying the validator,
// the validator is shared by every read endpoint of one generation,
// differs between pretty and compact representations, and rotates on
// a generation swap so a stale validator can never 304.
func TestETagConditional(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	id := snap.Entries[0].ID

	code, h, body := getRaw(t, ts, "/cve/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("/cve/%s = %d", id, code)
	}
	etag := h.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) || h.Get("Cache-Control") != readCacheControl {
		t.Fatalf("validator headers: ETag=%q Cache-Control=%q", etag, h.Get("Cache-Control"))
	}

	// Matching validators 304 with no body, echoing the validator.
	for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		code, h304, b304 := getRaw(t, ts, "/cve/"+id, inm)
		if code != http.StatusNotModified || len(b304) != 0 {
			t.Fatalf("If-None-Match %q = %d with %d body bytes, want bare 304", inm, code, len(b304))
		}
		if h304.Get("ETag") != etag {
			t.Fatalf("304 validator = %q, want %q", h304.Get("ETag"), etag)
		}
	}
	// A stale or foreign validator serves the full response.
	if code, _, b := getRaw(t, ts, "/cve/"+id, `"bogus"`); code != http.StatusOK || !bytes.Equal(b, body) {
		t.Fatalf("mismatched validator = %d", code)
	}

	// One generation, one validator: /query and /healthz share it.
	if code, hq, _ := getRaw(t, ts, "/query?limit=5", ""); code != http.StatusOK || hq.Get("ETag") != etag {
		t.Fatalf("/query validator = %q, want %q", hq.Get("ETag"), etag)
	}
	if code, _, b := getRaw(t, ts, "/query?limit=5", etag); code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional /query = %d", code)
	}
	if code, _, b := getRaw(t, ts, "/healthz", etag); code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional /healthz = %d", code)
	}

	// The pretty representation has its own validator.
	codep, hp, bp := getRaw(t, ts, "/cve/"+id+"?pretty=1", "")
	if codep != http.StatusOK || hp.Get("ETag") == etag || hp.Get("ETag") == "" {
		t.Fatalf("pretty validator = %q (compact %q)", hp.Get("ETag"), etag)
	}
	if code, _, _ := getRaw(t, ts, "/cve/"+id+"?pretty=1", etag); code != http.StatusOK {
		t.Fatalf("compact validator matched the pretty representation: %d", code)
	}
	if code, _, b := getRaw(t, ts, "/cve/"+id+"?pretty=1", hp.Get("ETag")); code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional pretty = %d", code)
	}
	var compact, pretty any
	if err := json.Unmarshal(body, &compact); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bp, &pretty); err != nil {
		t.Fatal(err)
	}
	if len(bp) <= len(body) {
		t.Errorf("pretty body (%d bytes) not larger than compact (%d)", len(bp), len(body))
	}

	// Errors carry no validator.
	if code, h404, _ := getRaw(t, ts, "/cve/CVE-2098-9999", ""); code != http.StatusNotFound || h404.Get("ETag") != "" {
		t.Fatalf("404 = %d ETag=%q, want no validator", code, h404.Get("ETag"))
	}
	// /stats is live-countered and deliberately unvalidated.
	if code, hs, _ := getRaw(t, ts, "/stats", ""); code != http.StatusOK || hs.Get("ETag") != "" {
		t.Fatalf("/stats = %d ETag=%q, want no validator", code, hs.Get("ETag"))
	}

	// A generation swap rotates the validator: the old tag must never
	// 304 again, and the new one must.
	postFeed(t, ts, feedUpdate(t, snap))
	code, h2, _ := getRaw(t, ts, "/cve/"+id, etag)
	if code != http.StatusOK {
		t.Fatalf("stale validator against swapped generation = %d, want full 200", code)
	}
	etag2 := h2.Get("ETag")
	if etag2 == etag || etag2 == "" {
		t.Fatalf("validator did not rotate on swap: %q", etag2)
	}
	if code, _, _ := getRaw(t, ts, "/cve/"+id, etag2); code != http.StatusNotModified {
		t.Fatalf("fresh validator = %d, want 304", code)
	}
}

// TestPrettyOptIn pins the wire change: responses are compact by
// default, byte-identical JSON documents to the old indented form, and
// ?pretty=1 restores indentation per request. A malformed pretty value
// is a 400, not a silent default.
func TestPrettyOptIn(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	st := srv.cur.Load()
	id := snap.Entries[0].ID

	_, _, compact := getRaw(t, ts, "/cve/"+id, "")
	if bytes.Contains(compact, []byte("\n  ")) {
		t.Error("default /cve body is indented")
	}
	_, _, pretty := getRaw(t, ts, "/cve/"+id+"?pretty=1", "")
	if want := encodeJSON(st.view(st.res.Cleaned.ByID(id)), true); !bytes.Equal(pretty, want) {
		t.Errorf("pretty body differs from indented render")
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(indented.String()) != strings.TrimSpace(string(pretty)) {
		t.Error("pretty and compact are not the same JSON document")
	}

	p, err := parseQueryParams("limit=3&pretty=true")
	if err != nil || !p.pretty {
		t.Fatalf("pretty=true parse: %+v %v", p, err)
	}
	if _, _, b := getRaw(t, ts, "/query?limit=3&pretty=1", ""); !bytes.Equal(b, encodeJSON(st.queryIndexed(p), true)) {
		t.Error("/query?pretty=1 differs from indented render")
	}
	for _, path := range []string{"/cve/" + id + "?pretty=2", "/query?pretty=yes", "/healthz?pretty=2", "/stats?pretty=2"} {
		if code, _, _ := getRaw(t, ts, path, ""); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}
}

// TestFeedBodyLimit pins the POST /feed body bound: a body past
// -max-feed-bytes is a 413 before it can balloon the heap, and the
// error names the limit. The bound fires during the streaming decode,
// so no loaded snapshot is needed.
func TestFeedBodyLimit(t *testing.T) {
	srv := newServer(nvdclean.Options{})
	srv.maxFeedBytes = 1024
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	big := `{"pad":"` + strings.Repeat("x", 4096) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /feed = %d, want 413 (%v)", resp.StatusCode, msg)
	}
	if !strings.Contains(msg["error"], "1024") {
		t.Errorf("413 does not name the limit: %v", msg)
	}

	// A body under the limit reaches the handler proper (503 here:
	// this bare server never loaded a snapshot — parsing succeeded).
	resp, err = ts.Client().Post(ts.URL+"/feed", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("small POST /feed = %d, want 503 from the empty server", resp.StatusCode)
	}

	// maxFeedBytes <= 0 lifts the bound.
	srv.maxFeedBytes = 0
	resp, err = ts.Client().Post(ts.URL+"/feed", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatal("unbounded server returned 413")
	}
}

// TestReadCacheStats proves the /stats readCache section counts real
// traffic: misses on first render, hits on repeats, query bytes saved,
// and 304s.
func TestReadCacheStats(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	id := snap.Entries[0].ID

	getRaw(t, ts, "/cve/"+id, "")
	_, h, _ := getRaw(t, ts, "/cve/"+id, "")
	getRaw(t, ts, "/query?limit=3", "")
	getRaw(t, ts, "/query?limit=3", "")
	getRaw(t, ts, "/cve/"+id, h.Get("ETag")) // 304

	var stats struct {
		ReadCache struct {
			Entry struct {
				Hits          int `json:"hits"`
				Misses        int `json:"misses"`
				CachedEntries int `json:"cachedEntries"`
			} `json:"entry"`
			Query struct {
				Hits       int `json:"hits"`
				Misses     int `json:"misses"`
				BytesSaved int `json:"bytesSaved"`
			} `json:"query"`
			Conditional struct {
				NotModified int `json:"notModified"`
				BytesSaved  int `json:"bytesSaved"`
			} `json:"conditional"`
		} `json:"readCache"`
	}
	if code := getJSON(t, ts, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	rc := stats.ReadCache
	if rc.Entry.Hits < 1 {
		t.Errorf("entry hits = %d, want >= 1", rc.Entry.Hits)
	}
	if rc.Query.Hits < 1 || rc.Query.Misses < 1 || rc.Query.BytesSaved < 1 {
		t.Errorf("query counters: %+v", rc.Query)
	}
	if rc.Conditional.NotModified < 1 || rc.Conditional.BytesSaved < 1 {
		t.Errorf("conditional counters: %+v", rc.Conditional)
	}
}

// stubWriter is a ResponseWriter that keeps one header map across
// requests and discards the body, so an allocation count sees only
// what the serving path allocates.
type stubWriter struct {
	h      http.Header
	status int
}

func (w *stubWriter) Header() http.Header         { return w.h }
func (w *stubWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *stubWriter) WriteHeader(code int)        { w.status = code }

// TestCachedReadAllocGuard pins the heap objects one cached read costs
// through the daemon's full handler, middleware included: the header
// values are shared per generation and per process, the query string
// is scanned in place, and so is If-None-Match. What is left is
// Content-Length and, on /cve, the mux's path match or, on /query, the
// one-allocation cache key.
func TestCachedReadAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	srv, snap := demoServer(t)
	h := srv.handler()
	e := snap.Entries[0]
	get := func(path, inm string) *http.Request {
		r := httptest.NewRequest("GET", path, nil)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		return r
	}
	etag := srv.cur.Load().etagFor(false)
	for _, tc := range []struct {
		req    *http.Request
		status int
		allocs float64
	}{
		{get("/cve/"+e.ID, ""), http.StatusOK, 3},
		{get("/cve/"+e.ID, `"other", `+etag), http.StatusNotModified, 1},
		{get("/query?limit=5", ""), http.StatusOK, 3},
		{get("/query?vendor="+url.QueryEscape(e.CPEs[0].Vendor)+"&limit=50", ""), http.StatusOK, 3},
		{get("/query?severity=High&limit=200", ""), http.StatusOK, 3},
	} {
		w := &stubWriter{h: http.Header{}}
		h.ServeHTTP(w, tc.req) // fills the response caches
		if w.status != tc.status {
			t.Fatalf("%s = %d, want %d", tc.req.URL, w.status, tc.status)
		}
		n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, tc.req) })
		t.Logf("%s: %.0f objects", tc.req.URL, n)
		if n > tc.allocs {
			t.Errorf("%s (If-None-Match %q) allocates %.0f objects, want at most %.0f",
				tc.req.URL, tc.req.Header.Get("If-None-Match"), n, tc.allocs)
		}
	}
}
