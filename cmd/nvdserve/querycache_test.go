package main

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
)

// TestQueryCacheKeyInjective posts two CVEs whose vendor and product
// split "a\x1fb" and "c" differently — a CPE name may hold that byte,
// and so may a URL, as %1F — and queries each pair in turn: each query
// must serve its own page, not the one cached for the other pair. The
// unfiltered query serves its own page, and a blank cwe value is a 400.
func TestQueryCacheKeyInjective(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	entry := func(id, vendor, product string) *nvdclean.Entry {
		e := snap.Entries[0].Clone()
		e.ID = id
		e.CPEs = []cpe.Name{cpe.NewName(cpe.PartApplication, vendor, product, "1.0")}
		return e
	}
	postFeed(t, ts, &nvdclean.Snapshot{
		CapturedAt: snap.CapturedAt.Add(24 * time.Hour),
		Entries:    []*nvdclean.Entry{entry("CVE-2018-99001", "a\x1fb", "c"), entry("CVE-2018-99002", "a", "b\x1fc")},
	})
	st := srv.cur.Load()
	for _, tc := range []struct {
		p  queryParams
		id string
	}{
		{queryParams{vendor: "a\x1fb", product: "c", limit: 50}, "CVE-2018-99001"},
		{queryParams{vendor: "a", product: "b\x1fc", limit: 50}, "CVE-2018-99002"},
	} {
		resp := st.queryIndexed(tc.p)
		if len(resp.Results) != 1 || resp.Results[0].ID != tc.id {
			t.Fatalf("fixture: %s matches %+v, want only %s", queryURL(tc.p), resp.Results, tc.id)
		}
		fresh := encodeJSON(resp, false)
		if _, _, body := getRaw(t, ts, queryURL(tc.p), ""); !bytes.Equal(body, fresh) {
			t.Errorf("%s served\n%s\nwant its own page\n%s", queryURL(tc.p), body, fresh)
		}
	}
	// A blank cwe value is a bad filter, not one on cwe.Unassigned,
	// whose name is empty, as an unset filter's is: it must not be
	// served the unfiltered page, nor any page.
	p, err := parseQueryParams("limit=2")
	if err != nil {
		t.Fatal(err)
	}
	fresh := encodeJSON(st.queryIndexed(p), false)
	if _, _, body := getRaw(t, ts, "/query?limit=2", ""); !bytes.Equal(body, fresh) {
		t.Errorf("/query?limit=2 served\n%s\nwant its own page\n%s", body, fresh)
	}
	if code, _, body := getRaw(t, ts, "/query?cwe=%20&limit=2", ""); code != http.StatusBadRequest || !bytes.Contains(body, []byte("bad cwe")) {
		t.Errorf("/query?cwe=%%20&limit=2 = %d %s, want 400 bad cwe", code, body)
	}
}

// FuzzQueryCacheKey checks that parseCacheKey inverts cacheKey both
// ways: every parameter set reads back from its key, and every string
// parseCacheKey accepts is the key of what it reads as. The first
// property makes the key injective, so no two parameter sets share a
// cache slot; the second makes the reading exact, so the carry rule
// judges the page the key really names.
func FuzzQueryCacheKey(f *testing.F) {
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	seeds := append(paramGrid(&serveState{res: &nvdclean.Result{Cleaned: snap}}),
		queryParams{vendor: "a\x1fb", product: "c", limit: 50},
		queryParams{vendor: "a", product: "b\x1fc", limit: 50},
		queryParams{cweID: 0, hasCWE: true, limit: 50},
		queryParams{sev: cvss.SeverityNone, hasSev: true, limit: 50})
	for _, p := range seeds {
		f.Add(p.vendor, p.product, int(p.cweID), p.hasCWE, int(p.sev), p.hasSev, p.year, p.limit, p.offset, p.cacheKey())
	}
	f.Add("", "", 0, false, 0, false, 0, 0, 0, "01\x1f\x1f0\x1f50\x1f0\x1f0\x1f")
	f.Fuzz(func(t *testing.T, vendor, product string, cweID int, hasCWE bool, sev int, hasSev bool, year, limit, offset int, raw string) {
		p := queryParams{vendor: vendor, product: product, year: year, limit: limit, offset: offset}
		if hasCWE {
			p.cweID, p.hasCWE = cwe.ID(cweID), true
		}
		if hasSev {
			p.sev, p.hasSev = cvss.Severity(sev), true
		}
		if q, ok := parseCacheKey(p.cacheKey()); !ok || q != p {
			t.Errorf("cacheKey(%+v) = %q reads back as %+v, %v", p, p.cacheKey(), q, ok)
		}
		if q, ok := parseCacheKey(raw); ok && q.cacheKey() != raw {
			t.Errorf("%q reads as %+v, whose key is %q", raw, q, q.cacheKey())
		}
	})
}

// pagesAbout returns /query pages whose filters e passes: its year, its
// severity band, each of its CWEs, vendors, products and pairs. Year
// pages take the largest window, so an edit inside one shows in it.
func pagesAbout(e *nvdclean.Entry) []queryParams {
	ps := []queryParams{{year: e.Year(), limit: maxQueryLimit}}
	if sev, ok := e.SeverityPV3(); ok {
		ps = append(ps, queryParams{sev: sev, hasSev: true, limit: 50})
	}
	for _, c := range e.CWEs {
		ps = append(ps, queryParams{cweID: c, hasCWE: true, limit: 50})
	}
	for _, n := range e.CPEs {
		ps = append(ps,
			queryParams{vendor: n.Vendor, limit: 50},
			queryParams{product: n.Product, limit: 50},
			queryParams{vendor: n.Vendor, product: n.Product, limit: 50})
	}
	return ps
}

// TestQueryCacheCarryOver is the oracle of the /query carry rule. A
// chain of posts runs against a daemon whose /query cache holds the
// paramGrid pages plus pages aimed at each post: a description edit,
// an added CVE, an edit that moves an entry out of its vendor's pages,
// an alias overtaking its canonical vendor (which renames entries the
// post never names), dual-labeled entries that retrain the engine (and
// so move pv3 on entries the post never names), a replace that removes
// an entry, and a bulk replace past maxCarryChecks. After each post
// every page the new generation's cache holds must be the fresh render
// of that generation, and the bulk replace must leave it empty. Across
// the chain pages must carry and pages must drop, a carried page must
// count a hit and a dropped one a miss, and some page that changed must
// be one no new version of a changed entry passes (a rule that checked
// only new versions would have carried it stale), and one no entry the
// feed delta names passes (a rule that read the feed delta instead of
// the cleaned one would have carried it stale).
func TestQueryCacheCarryOver(t *testing.T) {
	srv, _ := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	m := srv.metrics

	known := map[string]queryParams{}
	var carried, dropped, hitsSeen, newOnlyCatches, feedCatches int
	// step fills the cache with paramGrid and the aimed pages, posts,
	// and checks the new generation's cache against fresh renders.
	step := func(name, mode string, posted *nvdclean.Snapshot, aimed []queryParams) (prev, next *serveState) {
		t.Helper()
		prev = srv.cur.Load()
		for _, p := range append(paramGrid(prev), aimed...) {
			u := queryURL(p)
			if q, err := parseQueryParams(u[len("/query?"):]); err != nil || q != p {
				continue // a meta CWE the URL cannot name
			}
			known[p.cacheKey()] = p
			if code, _, _ := getRaw(t, ts, u, ""); code != http.StatusOK {
				t.Fatalf("%s: %s = %d", name, u, code)
			}
		}
		var feed *nvdclean.Delta
		if mode == "replace" {
			feed = nvdclean.Diff(prev.res.Original, posted)
		} else {
			feed = upsertDelta(prev.res.Original, posted)
		}
		postFeedMode(t, ts, posted, mode)
		next = srv.cur.Load()
		if next.generation != prev.generation+1 {
			t.Fatalf("%s: generation %d after %d", name, next.generation, prev.generation)
		}

		cleaned := nvdclean.Diff(prev.res.Cleaned, next.res.Cleaned)
		newVersions := append(slices.Clone(cleaned.Added), cleaned.Modified...)
		feedNamed := append(slices.Clone(feed.Added), feed.Modified...)
		for _, e := range feed.Modified {
			feedNamed = append(feedNamed, prev.res.Cleaned.ByID(e.ID))
		}
		for _, id := range feed.Removed {
			feedNamed = append(feedNamed, prev.res.Cleaned.ByID(id))
		}
		passes := func(p queryParams, es []*nvdclean.Entry) bool {
			return slices.ContainsFunc(es, p.matches)
		}
		held := 0
		var keep, drop []string
		for _, key := range slices.Sorted(maps.Keys(known)) {
			p := known[key]
			fresh := encodeJSON(next.queryIndexed(p), false)
			if b := next.queries.Peek(key); b != nil {
				held++
				carried++
				keep = append(keep, key)
				if !bytes.Equal(b, fresh) {
					t.Fatalf("%s: carried %s differs from the fresh render\ncarried: %s\nfresh:   %s", name, queryURL(p), b, fresh)
				}
				continue
			}
			if prev.queries.Peek(key) == nil {
				continue // not cached before the post
			}
			dropped++
			drop = append(drop, key)
			if bytes.Equal(encodeJSON(prev.queryIndexed(p), false), fresh) {
				continue
			}
			if !passes(p, newVersions) {
				newOnlyCatches++
			}
			if !passes(p, feedNamed) {
				feedCatches++
			}
		}
		if held != next.queries.Len() {
			t.Fatalf("%s: the cache holds %d pages, %d of them known", name, next.queries.Len(), held)
		}
		t.Logf("%s: cleaned delta +%d ~%d -%d, %d pages carried, %d dropped",
			name, len(cleaned.Added), len(cleaned.Modified), len(cleaned.Removed), len(keep), len(drop))
		if len(keep) > 0 && len(drop) > 0 {
			hits, misses := m.QueryHits.Load(), m.QueryMisses.Load()
			getRaw(t, ts, queryURL(known[keep[0]]), "")
			if m.QueryHits.Load() != hits+1 || m.QueryMisses.Load() != misses {
				t.Errorf("%s: a carried page did not count one hit", name)
			}
			getRaw(t, ts, queryURL(known[drop[0]]), "")
			if m.QueryMisses.Load() != misses+1 {
				t.Errorf("%s: a dropped page did not count one miss", name)
			}
			hitsSeen++
		}
		return prev, next
	}
	// unnamed requires the cleaned delta to change an entry the post
	// does not name.
	unnamed := func(name string, prev, next *serveState, posted *nvdclean.Snapshot) {
		t.Helper()
		named := map[string]bool{}
		for _, e := range posted.Entries {
			named[e.ID] = true
		}
		for _, e := range nvdclean.Diff(prev.res.Cleaned, next.res.Cleaned).Modified {
			if !named[e.ID] {
				return
			}
		}
		t.Fatalf("%s: the cleaned delta changes no entry the post does not name", name)
	}
	upsert := func(st *serveState, es ...*nvdclean.Entry) *nvdclean.Snapshot {
		return &nvdclean.Snapshot{CapturedAt: st.res.Original.CapturedAt.Add(24 * time.Hour), Entries: es}
	}
	cleanedOf := func(st *serveState, id string) *nvdclean.Entry { return st.res.Cleaned.ByID(id) }

	// 1. A description edit.
	st := srv.cur.Load()
	edited := st.res.Original.Entries[5].Clone()
	edited.Descriptions[0].Value += " Exploited in the wild."
	step("description edit", "upsert", upsert(st, edited), pagesAbout(cleanedOf(st, edited.ID)))

	// 2. An added CVE.
	st = srv.cur.Load()
	added := st.res.Original.Entries[9].Clone()
	added.ID = "CVE-2018-99101"
	step("added CVE", "upsert", upsert(st, added), pagesAbout(cleanedOf(st, st.res.Original.Entries[9].ID)))

	// 3. An edit that moves an entry out of its vendor's pages.
	st = srv.cur.Load()
	moved := st.res.Original.Entries[13].Clone()
	for i := range moved.CPEs {
		moved.CPEs[i].Vendor = "zq_moved_vendor"
	}
	step("vendor moved", "upsert", upsert(st, moved), pagesAbout(cleanedOf(st, moved.ID)))

	// 4. An alias overtakes its canonical vendor: entries of the
	// canonical name the post never names are renamed to the alias.
	st = srv.cur.Load()
	alias, canonical, need := overtakeTarget(t, st)
	var src *nvdclean.Entry
	for _, e := range st.res.Original.Entries {
		if slices.ContainsFunc(e.CPEs, func(n cpe.Name) bool { return n.Vendor == alias }) {
			src = e
			break
		}
	}
	var product string
	for _, n := range src.CPEs {
		if n.Vendor == alias {
			product = n.Product
		}
	}
	var overtaking []*nvdclean.Entry
	for i := range need {
		e := src.Clone()
		e.ID = fmt.Sprintf("CVE-2018-992%02d", i)
		e.CPEs = []cpe.Name{cpe.NewName(cpe.PartApplication, alias, product, "1.0")}
		overtaking = append(overtaking, e)
	}
	aimed := []queryParams{{vendor: canonical, limit: maxQueryLimit}, {vendor: alias, limit: maxQueryLimit}}
	for _, e := range st.res.Cleaned.Entries {
		if slices.ContainsFunc(e.CPEs, func(n cpe.Name) bool { return n.Vendor == canonical }) {
			aimed = append(aimed, pagesAbout(e)...)
			break
		}
	}
	posted := upsert(st, overtaking...)
	prev, next := step("alias overtakes", "upsert", posted, aimed)
	unnamed("alias overtakes", prev, next, posted)

	// 5. Dual-labeled entries retrain the engine, which moves pv3 on
	// v2-only entries the post never names.
	st = srv.cur.Load()
	var dual []*nvdclean.Entry
	aimed = nil
	years := map[int]bool{}
	for _, e := range st.res.Cleaned.Entries {
		if !years[e.Year()] {
			years[e.Year()] = true
			aimed = append(aimed, queryParams{year: e.Year(), limit: maxQueryLimit})
		}
	}
	for _, s := range []cvss.Severity{cvss.SeverityLow, cvss.SeverityMedium, cvss.SeverityHigh, cvss.SeverityCritical} {
		aimed = append(aimed, queryParams{sev: s, hasSev: true, limit: maxQueryLimit})
	}
	for _, e := range st.res.Original.Entries {
		if e.V2 != nil && e.V3 != nil && len(dual) < 8 {
			c := e.Clone()
			c.ID = fmt.Sprintf("CVE-2018-993%02d", len(dual))
			dual = append(dual, c)
		}
	}
	posted = upsert(st, dual...)
	prev, next = step("dual-labeled added", "upsert", posted, aimed)
	unnamed("dual-labeled added", prev, next, posted)

	// 6. A replace that removes one entry.
	st = srv.cur.Load()
	gone := st.res.Original.Entries[21]
	kept := &nvdclean.Snapshot{CapturedAt: st.res.Original.CapturedAt.Add(24 * time.Hour)}
	for _, e := range st.res.Original.Entries {
		if e.ID != gone.ID {
			kept.Entries = append(kept.Entries, e)
		}
	}
	step("replace removes", "replace", kept, pagesAbout(cleanedOf(st, gone.ID)))

	// 7. A bulk replace past the cost bound carries nothing.
	st = srv.cur.Load()
	bulk := &nvdclean.Snapshot{CapturedAt: st.res.Original.CapturedAt.Add(24 * time.Hour)}
	for _, e := range st.res.Original.Entries {
		c := e.Clone()
		c.Descriptions[0].Value += " Revised."
		bulk.Entries = append(bulk.Entries, c)
	}
	prev, next = step("bulk replace", "replace", bulk, nil)
	if pages := prev.queries.Len(); 2*bulk.Len()*pages <= maxCarryChecks {
		t.Fatalf("fixture: %d pages over %d modified entries stay within the cost bound", pages, bulk.Len())
	}
	if n := next.queries.Len(); n != 0 {
		t.Errorf("bulk replace carried %d pages past the cost bound", n)
	}

	t.Logf("%d pages carried, %d dropped; %d changed pages only an old version passes, %d no feed-named entry passes",
		carried, dropped, newOnlyCatches, feedCatches)
	if carried == 0 || dropped == 0 || hitsSeen == 0 {
		t.Errorf("carried %d, dropped %d, counters checked %d times: want all nonzero", carried, dropped, hitsSeen)
	}
	if newOnlyCatches == 0 {
		t.Error("fixture: no changed page that only an old version of a changed entry passes")
	}
	if feedCatches == 0 {
		t.Error("fixture: no changed page that no entry the feed delta names passes")
	}
}

// overtakeTarget picks the alias of st's vendor map that the fewest
// added CVEs lift above every other name of its group, which makes it
// the group's canonical name. It returns the alias, the name it maps
// to and the number of CVEs to add.
func overtakeTarget(t *testing.T, st *serveState) (alias, canonical string, need int) {
	t.Helper()
	counts := st.res.Original.VendorCVECount()
	aliases := st.res.VendorMap.Entries()
	for _, a := range slices.Sorted(maps.Keys(aliases)) {
		to := aliases[a]
		most := counts[to]
		for b, c := range aliases {
			if c == to {
				most = max(most, counts[b])
			}
		}
		if n := most - counts[a] + 1; counts[a] > 0 && (alias == "" || n < need) {
			alias, canonical, need = a, to, n
		}
	}
	if alias == "" {
		t.Fatal("fixture: the vendor map has no alias")
	}
	return alias, canonical, need
}
