package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
	"nvdclean/internal/store"
)

// The reference read path: the view types the daemon once encoded by
// reflection, the query window over whole match lists, and the
// url.Values parameter parse. The tests hold the appending renderers and
// the raw-query scanner to these, byte for byte.

// affectedView is one (vendor, product) pair of a CVE.
type affectedView struct {
	Vendor  string `json:"vendor"`
	Product string `json:"product"`
}

// cveView is the JSON shape of one served CVE: the cleaned entry plus
// every pipeline artifact attached to it.
type cveView struct {
	ID           string         `json:"id"`
	Published    time.Time      `json:"published"`
	Descriptions []string       `json:"descriptions,omitempty"`
	CWEs         []string       `json:"cwes,omitempty"`
	Affected     []affectedView `json:"affected,omitempty"`
	References   []string       `json:"references,omitempty"`

	V2Score    *float64 `json:"v2Score,omitempty"`
	V2Severity string   `json:"v2Severity,omitempty"`
	V3Score    *float64 `json:"v3Score,omitempty"`
	V3Severity string   `json:"v3Severity,omitempty"`
	// Backported marks entries whose v3 score is the §4.3 prediction.
	Backported  bool     `json:"backported,omitempty"`
	PV3Score    *float64 `json:"pv3Score,omitempty"`
	PV3Severity string   `json:"pv3Severity,omitempty"`

	EstimatedDisclosure *time.Time `json:"estimatedDisclosure,omitempty"`
	LagDays             *int       `json:"lagDays,omitempty"`

	VendorConsolidated  bool `json:"vendorConsolidated,omitempty"`
	ProductConsolidated bool `json:"productConsolidated,omitempty"`
}

func (st *serveState) view(e *nvdclean.Entry) cveView {
	v := cveView{ID: e.ID, Published: e.Published}
	for _, d := range e.Descriptions {
		v.Descriptions = append(v.Descriptions, d.Value)
	}
	for _, c := range e.CWEs {
		v.CWEs = append(v.CWEs, c.String())
	}
	for _, n := range e.CPEs {
		v.Affected = append(v.Affected, affectedView{Vendor: n.Vendor, Product: n.Product})
	}
	for _, r := range e.References {
		v.References = append(v.References, r.URL)
	}
	if e.V2 != nil {
		score := e.V2.BaseScore()
		v.V2Score = &score
		v.V2Severity = e.V2.Severity().String()
	}
	if e.V3 != nil {
		score := e.V3.BaseScore()
		v.V3Score = &score
		v.V3Severity = e.V3.Severity().String()
	}
	if e.PV3 != nil {
		v.Backported = true
		v.PV3Score = e.PV3
		v.PV3Severity = cvss.SeverityV3(*e.PV3).String()
	}
	if d, ok := st.res.EstimatedDisclosure[e.ID]; ok {
		v.EstimatedDisclosure = &d
		lag := st.res.LagDays[e.ID]
		v.LagDays = &lag
	}
	v.VendorConsolidated = st.res.VendorChanged[e.ID]
	v.ProductConsolidated = st.res.ProductChanged[e.ID]
	return v
}

type hit struct {
	ID          string   `json:"id"`
	Severity    string   `json:"severity,omitempty"`
	Score       *float64 `json:"score,omitempty"`
	Backported  bool     `json:"backported,omitempty"`
	VendorMatch string   `json:"vendor,omitempty"`
}

type queryResponse struct {
	Total   int   `json:"total"`
	Limit   int   `json:"limit"`
	Offset  int   `json:"offset"`
	Results []hit `json:"results"`
}

// hitOf renders one matched entry.
func (st *serveState) hitOf(e *nvdclean.Entry, p queryParams) hit {
	h := hit{ID: e.ID, VendorMatch: matchVendor(e, p.vendor, p.product)}
	if sev, ok := e.SeverityPV3(); ok {
		h.Severity = sev.String()
	}
	if e.V3 != nil {
		score := e.V3.BaseScore()
		h.Score = &score
	} else if e.PV3 != nil {
		h.Score = e.PV3
		h.Backported = true
	}
	return h
}

// window applies offset/limit pagination to the matched entries and
// renders the response.
func (st *serveState) window(matched []*nvdclean.Entry, p queryParams) queryResponse {
	resp := queryResponse{Total: len(matched), Limit: p.limit, Offset: p.offset, Results: []hit{}}
	lo := p.offset
	if lo > len(matched) {
		lo = len(matched)
	}
	hi := lo + p.limit
	if hi > len(matched) {
		hi = len(matched)
	}
	for _, e := range matched[lo:hi] {
		resp.Results = append(resp.Results, st.hitOf(e, p))
	}
	return resp
}

// queryIndexed answers a /query via index intersection, materializing
// every matched entry before the window; a corrupt posting block makes
// the linear scan answer instead.
func (st *serveState) queryIndexed(p queryParams) queryResponse {
	ords, filtered, err := st.idx.Match(store.Query{
		Vendor: p.vendor, Product: p.product,
		CWE: p.cweID, HasCWE: p.hasCWE,
		Severity: p.sev, HasSeverity: p.hasSev,
		Year: p.year,
	})
	if err != nil {
		return st.queryScan(p)
	}
	if !filtered {
		return st.window(st.res.Cleaned.Entries, p)
	}
	matched := make([]*nvdclean.Entry, 0, len(ords))
	for _, o := range ords {
		matched = append(matched, st.res.Cleaned.Entries[o])
	}
	return st.window(matched, p)
}

// queryScan is the reference linear scan over the cleaned snapshot:
// the invariant tests prove the indexes change latency, never bytes.
func (st *serveState) queryScan(p queryParams) queryResponse {
	var matched []*nvdclean.Entry
	for _, e := range st.res.Cleaned.Entries {
		if p.matches(e) {
			matched = append(matched, e)
		}
	}
	return st.window(matched, p)
}

// parseQueryValues is the reference parameter parse, over the
// url.Values r.URL.Query() builds. It names a random unknown parameter
// when there are several (it ranges over the map), and it reads a blank
// cwe value as bad, as parseQueryParams does.
func parseQueryValues(values url.Values) (queryParams, error) {
	p := queryParams{limit: 50}
	for k := range values {
		switch k {
		case "vendor", "product", "cwe", "severity", "year", "limit", "offset", "pretty":
		default:
			return p, fmt.Errorf("unknown query parameter %q (want vendor, product, cwe, severity, year, limit, offset or pretty)", k)
		}
	}
	var err error
	if p.pretty, err = parsePretty(values.Get("pretty")); err != nil {
		return p, err
	}
	p.vendor = values.Get("vendor")
	p.product = values.Get("product")
	if c := values.Get("cwe"); c != "" {
		id, err := cwe.Parse(c)
		if err != nil || id == cwe.Unassigned {
			return p, fmt.Errorf("bad cwe %q", c)
		}
		p.cweID, p.hasCWE = id, true
	}
	if sev := values.Get("severity"); sev != "" {
		var ok bool
		if p.sev, ok = cvss.ParseSeverity(sev); !ok {
			return p, fmt.Errorf("bad severity %q", sev)
		}
		p.hasSev = true
	}
	if y := values.Get("year"); y != "" {
		var err error
		if p.year, err = strconv.Atoi(y); err != nil || p.year < 1 {
			return p, fmt.Errorf("bad year %q", y)
		}
	}
	if l := values.Get("limit"); l != "" {
		var err error
		if p.limit, err = strconv.Atoi(l); err != nil || p.limit < 1 {
			return p, fmt.Errorf("bad limit %q", l)
		}
		if p.limit > maxQueryLimit {
			return p, fmt.Errorf("limit %d exceeds the maximum %d", p.limit, maxQueryLimit)
		}
	}
	if o := values.Get("offset"); o != "" {
		var err error
		if p.offset, err = strconv.Atoi(o); err != nil || p.offset < 0 {
			return p, fmt.Errorf("bad offset %q", o)
		}
	}
	return p, nil
}

// readFixtures returns entries whose strings hold every byte class
// JSON escaping treats specially — '<', '>', '&', quotes, backslashes,
// control bytes, U+2028 and U+2029, invalid UTF-8 — with empty and nil
// lists, meta CWEs, and nil and present pv3 scores beside real v3 ones.
// Every one renders; base supplies their vectors and dates.
func readFixtures(base *nvdclean.Snapshot) []*nvdclean.Entry {
	var v2only, v3 *nvdclean.Entry
	for _, e := range base.Entries {
		if e.V2 != nil && e.V3 == nil && v2only == nil {
			v2only = e
		}
		if e.V3 != nil && v3 == nil {
			v3 = e
		}
	}
	pv3 := func(f float64) *float64 { return &f }
	odd := []string{
		`<script>alert("x&y")</script>`,
		"quote \" backslash \\ slash / tab \t nl \n cr \r bs \b ff \f nul \x00 us \x1f del \x7f",
		"line \u2028 para \u2029 end é ü 日本",
		"invalid \xff\xfe utf-8 \xe2\x80 truncated \xc3",
		"",
	}
	mk := func(i int, from *nvdclean.Entry) *nvdclean.Entry {
		e := from.Clone()
		e.ID = "CVE-2099-" + strconv.Itoa(1000+i)
		return e
	}
	var es []*nvdclean.Entry
	for i, s := range odd {
		e := mk(len(es), v2only)
		e.Descriptions = []nvdclean.Description{{Value: s}, {Value: odd[(i+1)%len(odd)]}}
		e.CPEs = []cpe.Name{
			cpe.NewName(cpe.PartApplication, "acme"+s, "tool"+s, "1.0"),
			cpe.NewName(cpe.PartApplication, "acme", odd[(i+2)%len(odd)], "1.0"),
		}
		e.References = []nvdclean.Reference{{URL: "https://example.com/?a=1&b=<" + s + ">"}}
		e.CWEs = []cwe.ID{cwe.ID(79 + i), cwe.Other, cwe.NoInfo, cwe.Unassigned}
		e.PV3 = pv3(float64(i) * 2.35)
		es = append(es, e)
	}
	// Empty lists, nil lists, and every score combination.
	e := mk(len(es), v3)
	e.Descriptions, e.CWEs, e.CPEs, e.References = []nvdclean.Description{}, []cwe.ID{}, []cpe.Name{}, []nvdclean.Reference{}
	es = append(es, e)
	e = mk(len(es), v3)
	e.Descriptions, e.CWEs, e.CPEs, e.References = nil, nil, nil, nil
	e.PV3 = pv3(9.8)
	es = append(es, e)
	e = mk(len(es), v2only)
	e.V2, e.PV3 = nil, nil
	es = append(es, e)
	e = mk(len(es), v2only)
	e.V2, e.PV3 = nil, pv3(1e-7)
	es = append(es, e)
	e = mk(len(es), v2only)
	e.Published = time.Date(2017, 3, 4, 5, 6, 7, 123456789, time.FixedZone("", 5*3600+30*60))
	e.PV3 = nil
	es = append(es, e)
	return es
}

// fixtureState builds a generation over entries, with crawl estimates
// (in and out of UTC, with and without fractional seconds) and
// consolidation marks on some of them, through newState as a cold boot
// builds one.
func fixtureState(entries []*nvdclean.Entry, estimate func(i int) (time.Time, bool)) *serveState {
	res := &nvdclean.Result{
		Cleaned:             &nvdclean.Snapshot{Entries: entries},
		EstimatedDisclosure: map[string]time.Time{},
		LagDays:             map[string]int{},
		VendorChanged:       map[string]bool{},
		ProductChanged:      map[string]bool{},
	}
	for i, e := range entries {
		if d, ok := estimate(i); ok {
			res.EstimatedDisclosure[e.ID] = d
			res.LagDays[e.ID] = 3 - i
		}
		res.VendorChanged[e.ID] = i%2 == 0
		if i%3 == 0 {
			res.ProductChanged[e.ID] = true
		}
	}
	return newServer(nvdclean.Options{Concurrency: 1}).newState(res, nil, nil, nil)
}

// fixturePages is paramGrid over st plus pages on each fixture entry's
// own names, years and CWEs.
func fixturePages(st *serveState) []queryParams {
	ps := paramGrid(st)
	for _, e := range st.res.Cleaned.Entries {
		ps = append(ps, pagesAbout(e)...)
	}
	return ps
}

// checkReadEncoding compares every /cve body of st and each page of ps,
// compact and pretty, with json.Encoder over the reference views. It
// returns the number of bodies the reference failed to encode.
func checkReadEncoding(t *testing.T, label string, st *serveState, ps []queryParams) (failed int) {
	t.Helper()
	for _, e := range st.res.Cleaned.Entries {
		for _, pretty := range []bool{false, true} {
			want := encodeJSON(st.view(e), pretty)
			got := st.cveBody(e, pretty)
			if string(got) != string(want) || (got == nil) != (want == nil) {
				t.Fatalf("%s: /cve/%s pretty=%v\n got %q\nwant %q", label, e.ID, pretty, got, want)
			}
			if !pretty && cap(got) != len(got) {
				t.Fatalf("%s: /cve/%s body has %d bytes of spare capacity", label, e.ID, cap(got)-len(got))
			}
			if want == nil {
				failed++
			}
		}
	}
	for _, p := range ps {
		for _, pretty := range []bool{false, true} {
			p.pretty = pretty
			want := encodeJSON(st.queryIndexed(p), pretty)
			got := st.queryBody(p)
			if string(got) != string(want) || (got == nil) != (want == nil) {
				t.Fatalf("%s: %s pretty=%v\n got %q\nwant %q", label, queryURL(p), pretty, got, want)
			}
			if want == nil {
				failed++
			}
		}
	}
	return failed
}

// TestReadEncodingMatchesReference holds the appending renderers to
// json.Encoder over the reference view types, byte for byte, compact
// and pretty: every entry and every paramGrid page of a crawled
// SmallScale generation (400 CVEs under -short), then fixture entries
// with every string class JSON escapes, empty and nil lists, pv3 with
// and without v3, non-UTC estimates and consolidation marks, and last
// entries json.Encoder cannot encode, where both serve an empty body.
func TestReadEncodingMatchesReference(t *testing.T) {
	cfg := gen.SmallConfig()
	if testing.Short() {
		cfg = gen.TinyConfig()
	}
	snap, opts := world(t, cfg)
	srv := newServer(opts)
	coldBoot(t, srv, snap)
	st := srv.cur.Load()
	if len(st.res.EstimatedDisclosure) == 0 || len(st.res.VendorChanged) == 0 {
		t.Fatal("fixture: the generation has no crawl estimates or consolidation marks")
	}
	checkReadEncoding(t, "generation", st, paramGrid(st))
	t.Logf("%d entries and %d pages match the reference", st.res.Cleaned.Len(), len(paramGrid(st)))

	fixtures := readFixtures(st.res.Cleaned)
	fx := fixtureState(fixtures, func(i int) (time.Time, bool) {
		switch i % 3 {
		case 0:
			return time.Date(2016, 1, 2, 3, 4, 5, 0, time.UTC), true
		case 1:
			return time.Date(2016, 7, 8, 9, 10, 11, 500, time.FixedZone("", -8*3600)), true
		}
		return time.Time{}, false
	})
	if n := checkReadEncoding(t, "fixtures", fx, fixturePages(fx)); n != 0 {
		t.Fatalf("fixture: %d reference bodies failed to encode", n)
	}

	// Values json.Encoder refuses: a NaN pv3, a year past 9999, a
	// negative year, and an estimate whose zone is a day off UTC. Each
	// /cve body is empty, and so is the page the NaN score is on.
	broken := readFixtures(st.res.Cleaned)[:4]
	broken[0].PV3 = new(float64)
	*broken[0].PV3 = math.NaN()
	broken[1].Published = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	broken[2].Published = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)
	bad := fixtureState(broken, func(i int) (time.Time, bool) {
		return time.Date(2016, 1, 2, 3, 4, 5, 0, time.FixedZone("", 24*3600)), i == 3
	})
	// The NaN score is on the first page only.
	ps := []queryParams{{limit: 50}, {limit: 3, offset: 1}}
	if n := checkReadEncoding(t, "unencodable", bad, ps); n != 2*4+2 {
		t.Fatalf("fixture: %d reference bodies failed to encode, want %d", n, 2*4+2)
	}
}

// FuzzQueryParams holds the raw-query scanner and parse to url.ParseQuery
// and the reference parse: for any raw query both give the same
// parameters, or both refuse it. When both refuse it they name the
// same fault, except that the reference names a random unknown
// parameter where the scanner names the first in URL order.
func FuzzQueryParams(f *testing.F) {
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paramGrid(&serveState{res: &nvdclean.Result{Cleaned: snap}}) {
		u := queryURL(p)
		f.Add(u[len("/query?"):])
	}
	for _, raw := range []string{
		"", "cwe=%20", "cwe=+", "cwe=", "zz=1&aa=2&mm=3", "limit=5;offset=2", "limit=5&a;b=1&offset=2",
		"vendor=a+b&product=c%2Bd", "vendor=%zz&vendor=ok", "vendor=%4", "vend%6Fr=x", "%=1",
		"limit=5&limit=abc", "limit=abc&limit=5", "&&limit=3&&", "=x", "limit", "pretty=1&pretty=2",
		"severity=high&year=2017&cwe=CWE-79", "cwe=NVD-CWE-Other", "limit=1001", "offset=-1", "year=0",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, gotErr := parseQueryParams(raw)
		values, _ := url.ParseQuery(raw) // r.URL.Query() drops the error too
		want, wantErr := parseQueryValues(values)
		switch {
		case gotErr == nil && wantErr == nil:
			if got != want {
				t.Fatalf("%q parses to %+v, reference %+v", raw, got, want)
			}
		case gotErr == nil || wantErr == nil:
			t.Fatalf("%q: error %v, reference error %v", raw, gotErr, wantErr)
		case strings.HasPrefix(wantErr.Error(), "unknown query parameter"):
			if !strings.HasPrefix(gotErr.Error(), "unknown query parameter") {
				t.Fatalf("%q: error %v, reference error %v", raw, gotErr, wantErr)
			}
		case gotErr.Error() != wantErr.Error():
			t.Fatalf("%q: error %v, reference error %v", raw, gotErr, wantErr)
		}
		for _, name := range queryParamNames {
			if v := queryValue(raw, name); v != values.Get(name) {
				t.Fatalf("%q: queryValue(%q) = %q, url.Values.Get %q", raw, name, v, values.Get(name))
			}
		}
	})
}

// TestQueryUnknownParamDeterministic sends a /query with three unknown
// parameters 50 times: every answer is the same 400, naming the first
// of them in URL order.
func TestQueryUnknownParamDeterministic(t *testing.T) {
	srv, _ := demoServer(t)
	h := srv.handler()
	var first string
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/query?zz=1&aa=2&mm=3", nil))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", w.Code)
		}
		if i == 0 {
			first = w.Body.String()
			if !strings.Contains(first, `unknown query parameter \"zz\"`) {
				t.Fatalf("400 body %s does not name zz", first)
			}
		} else if w.Body.String() != first {
			t.Fatalf("request %d answered %s, request 0 %s", i, w.Body.String(), first)
		}
	}
}

// TestReadMissAllocGuard pins the heap objects one read that misses
// the response caches costs through the daemon's full handler,
// middleware included, with a stub writer: each request names an
// entry, a vendor+product page or a year+severity page no earlier
// request filled. Beyond what a
// cached read costs, a /cve miss pays its body and the entry cache's
// fill (its in-flight record and channel); a /query miss pays the
// index match, its body and the LRU slot.
func TestReadMissAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	srv, _ := demoServer(t)
	h := srv.handler()
	cves, pairs, yearSevs := missRequests(srv.cur.Load())
	for _, tc := range []struct {
		name   string
		reqs   []*http.Request
		allocs float64
	}{
		{"/cve miss", cves, 6},
		{"vendor+product /query miss", pairs, 8},
		{"year+severity /query miss", yearSevs, 9},
	} {
		runs := min(len(tc.reqs)-1, 200)
		if runs < 50 {
			t.Fatalf("fixture: only %d distinct %s requests", len(tc.reqs), tc.name)
		}
		i := 0
		w := &stubWriter{h: http.Header{}}
		n := testing.AllocsPerRun(runs, func() {
			w.status = 0
			h.ServeHTTP(w, tc.reqs[i])
			if w.status != http.StatusOK {
				t.Fatalf("%s = %d", tc.reqs[i].URL, w.status)
			}
			i++
		})
		t.Logf("a %s allocates %.0f objects", tc.name, n)
		if n > tc.allocs {
			t.Errorf("a %s allocates %.0f objects, want at most %.0f", tc.name, n, tc.allocs)
		}
	}
	if got := srv.metrics.EntryHits.Load() + srv.metrics.QueryHits.Load(); got != 0 {
		t.Errorf("%d requests hit a cache; every one must miss", got)
	}
}
