package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/fsio"
	"nvdclean/internal/gen"
	"nvdclean/internal/store"
)

// paramGrid builds a representative /query parameter grid from the
// served snapshot itself, so vendor/product/cwe values actually occur.
func paramGrid(st *serveState) []queryParams {
	var ps []queryParams
	e := st.res.Cleaned.Entries[0]
	vendor := e.CPEs[0].Vendor
	product := e.CPEs[0].Product
	var cweID cwe.ID
	for _, entry := range st.res.Cleaned.Entries {
		for _, c := range entry.CWEs {
			if !c.IsMeta() {
				cweID = c
				break
			}
		}
		if cweID != 0 {
			break
		}
	}
	year := e.Year()
	for _, limit := range []int{1, 5, 50} {
		for _, offset := range []int{0, 3, 100000} {
			ps = append(ps,
				queryParams{limit: limit, offset: offset},
				queryParams{vendor: vendor, limit: limit, offset: offset},
				queryParams{product: product, limit: limit, offset: offset},
				queryParams{vendor: vendor, product: product, limit: limit, offset: offset},
				queryParams{vendor: "no-such-vendor", limit: limit, offset: offset},
				queryParams{sev: cvss.SeverityHigh, hasSev: true, limit: limit, offset: offset},
				queryParams{sev: cvss.SeverityCritical, hasSev: true, year: year, limit: limit, offset: offset},
				queryParams{cweID: cweID, hasCWE: true, limit: limit, offset: offset},
				queryParams{cweID: cweID, hasCWE: true, vendor: vendor, sev: cvss.SeverityMedium, hasSev: true, limit: limit, offset: offset},
				queryParams{year: year, limit: limit, offset: offset},
				queryParams{year: 1901, limit: limit, offset: offset},
			)
		}
	}
	return ps
}

func marshalResponse(t *testing.T, resp queryResponse) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueryIndexEquivalence is the index invariant: for every filter
// combination, index-intersection answers are byte-identical to the
// reference linear scan — under an index built at any worker count,
// after an incremental ordinal-level update, after a post whose
// entries carry backportedV3 scores the engine never predicted, and
// after a persist→load round-trip through lazy checkpoint segments.
func TestQueryIndexEquivalence(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	check := func(st *serveState, alt *serveState, label string) {
		t.Helper()
		for _, p := range paramGrid(st) {
			indexed := marshalResponse(t, st.queryIndexed(p))
			scanned := marshalResponse(t, st.queryScan(p))
			if !bytes.Equal(indexed, scanned) {
				t.Fatalf("%s: query %+v: indexed %s != scanned %s", label, p, indexed, scanned)
			}
			if alt != nil {
				if b := marshalResponse(t, alt.queryIndexed(p)); !bytes.Equal(indexed, b) {
					t.Fatalf("%s: query %+v: alternate index differs", label, p)
				}
			}
		}
	}

	// Fresh builds at several worker counts.
	st := srv.cur.Load()
	for _, w := range []int{1, 8} {
		reindexed := *st
		reindexed.idx = store.BuildIndex(st.res.Cleaned, w)
		check(st, &reindexed, fmt.Sprintf("workers=%d", w))
	}

	// Incremental path: a POST /feed advances the index via the
	// ordinal-level Update; answers must stay identical to the scan and
	// to a from-scratch rebuild of the new snapshot.
	postFeed(t, ts, feedUpdate(t, snap))
	st2 := srv.cur.Load()
	if st2.generation == st.generation {
		t.Fatal("feed did not advance the generation")
	}
	rebuilt := *st2
	rebuilt.idx = store.BuildIndex(st2.res.Cleaned, 1)
	check(st2, &rebuilt, "incremental update")

	// A posted backportedV3 key is not the engine's score, so no
	// cleaned view carries one: an added entry holding a HIGH score
	// but no CVSS vector has no pv3 band, for the index as for the
	// scan and /cve, and a held v3 entry re-posted with a stale score
	// keeps only its v3 band.
	unscored := snap.Entries[0].Clone()
	unscored.ID, unscored.V2, unscored.V3 = "CVE-2018-9998", nil, nil
	high := 7.5
	unscored.PV3 = &high
	if st2.res.Original.ByID(unscored.ID) != nil {
		t.Fatalf("snapshot already holds %s", unscored.ID)
	}
	var stale *nvdclean.Entry
	for _, e := range st2.res.Original.Entries {
		if e.V3 != nil {
			stale = e.Clone()
			break
		}
	}
	if stale == nil {
		t.Fatal("no v3 entry in snapshot")
	}
	low := 1.0
	stale.PV3 = &low
	postFeed(t, ts, &nvdclean.Snapshot{
		CapturedAt: snap.CapturedAt.Add(48 * time.Hour),
		Entries:    []*nvdclean.Entry{stale, unscored},
	})
	st3 := srv.cur.Load()
	for _, id := range []string{unscored.ID, stale.ID} {
		e := st3.res.Cleaned.ByID(id)
		if e == nil {
			t.Fatalf("posted %s is not served", id)
		}
		if e.PV3 != nil {
			t.Errorf("%s: cleaned view carries the posted backported score %v", id, *e.PV3)
		}
	}
	var body map[string]any
	if code := getJSON(t, ts, "/cve/"+unscored.ID, &body); code != 200 {
		t.Fatalf("/cve/%s = %d", unscored.ID, code)
	}
	if score, ok := body["pv3Score"]; ok {
		t.Errorf("/cve/%s serves pv3Score %v the engine never predicted", unscored.ID, score)
	}
	rebuilt = *st3
	rebuilt.idx = store.BuildIndex(st3.res.Cleaned, 1)
	check(st3, &rebuilt, "posted backported scores")

	// Persist→load round-trip: the committed index segments reload as
	// a lazy index answering byte-identically, shards parsing only on
	// first touch.
	dir := t.TempDir()
	str, _, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := st3.res.StoreCheckpoint()
	cp.Index = st3.idx
	if err := str.Commit(cp); err != nil {
		t.Fatal(err)
	}
	if err := str.Close(); err != nil {
		t.Fatal(err)
	}
	str2, cp2, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer str2.Close()
	if cp2.Index == nil {
		t.Fatalf("reloaded checkpoint has no index (note %q)", cp2.IndexNote)
	}
	ixs := cp2.Index.Stats()
	if ixs.LoadedShards != 0 {
		t.Fatalf("freshly loaded index already parsed %d shards", ixs.LoadedShards)
	}
	if ixs.DiskBytes == 0 {
		t.Fatal("loaded index reports no on-disk bytes")
	}
	restored := *st3
	restored.idx = cp2.Index
	check(st3, &restored, "persist/load round-trip")
	if after := cp2.Index.Stats(); after.LoadedShards == 0 {
		t.Fatal("queries never touched a lazy shard")
	}
}

// TestUnorderedFeedQueryEquivalence is the regression test for a feed
// that does not list its CVEs in ID order. The daemon cold-boots from
// a reversed feed and takes a POST /feed; then the generation is
// committed and restored. After the post, and again after the
// restore, every /query answer from the index must equal the reference
// scan and a fresh BuildIndex. The incremental index update assumes
// ordinals in ID order, which only holds because loading a feed sorts
// it.
func TestUnorderedFeedQueryEquivalence(t *testing.T) {
	ctx := context.Background()
	snap, opts := world(t, gen.TinyConfig())
	reversed := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt, Entries: slices.Clone(snap.Entries)}
	slices.Reverse(reversed.Entries)
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, reversed); err != nil {
		t.Fatal(err)
	}
	loaded, err := nvdclean.LoadFeed(&body)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(opts)
	coldBoot(t, srv, loaded)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	postFeed(t, ts, feedUpdate(t, loaded))

	// check counts the grid queries whose indexed answer differs from
	// the scan, from a fresh BuildIndex, or from want's indexed answer.
	check := func(label string, st, want *serveState) {
		t.Helper()
		rebuilt := *st
		rebuilt.idx = store.BuildIndex(st.res.Cleaned, 1)
		grid := paramGrid(want)
		differ := 0
		for _, p := range grid {
			indexed := marshalResponse(t, st.queryIndexed(p))
			if !bytes.Equal(indexed, marshalResponse(t, st.queryScan(p))) ||
				!bytes.Equal(indexed, marshalResponse(t, rebuilt.queryIndexed(p))) ||
				!bytes.Equal(indexed, marshalResponse(t, want.queryIndexed(p))) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of %d /query answers differ", label, differ, len(grid))
		}
	}
	posted := srv.cur.Load()
	check("after POST /feed", posted, posted)

	dir := t.TempDir()
	str, _, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := posted.res.StoreCheckpoint()
	cp.Index = posted.idx
	if err := str.Commit(cp); err != nil {
		t.Fatal(err)
	}
	if err := str.Close(); err != nil {
		t.Fatal(err)
	}
	str2, cp2, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer str2.Close()
	if cp2.Index == nil {
		t.Fatalf("reloaded checkpoint has no index (note %q)", cp2.IndexNote)
	}
	restored := newServer(opts)
	if _, err := restored.advance(ctx, transition{cp: cp2}); err != nil {
		t.Fatal(err)
	}
	check("restored", restored.cur.Load(), posted)

	// Clean checks the order LoadFeed establishes rather than cope
	// without it.
	if _, err := nvdclean.Clean(ctx, reversed, opts); err == nil {
		t.Error("Clean accepted a snapshot out of ID order")
	}
}

// postFeed writes update as an NVD feed body and POSTs it.
func postFeed(t *testing.T, ts *httptest.Server, update *nvdclean.Snapshot) map[string]any {
	t.Helper()
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, update); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	summary := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST /feed = %d: %v", resp.StatusCode, summary)
	}
	return summary
}

// feedUpdate builds the canonical test delta: one added v2-only CVE
// cloned from an existing entry plus one modified description.
func feedUpdate(t *testing.T, snap *nvdclean.Snapshot) *nvdclean.Snapshot {
	t.Helper()
	var v2only *nvdclean.Entry
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil {
			v2only = e
			break
		}
	}
	if v2only == nil {
		t.Fatal("no v2-only entry in snapshot")
	}
	added := v2only.Clone()
	added.ID = "CVE-2018-9999"
	modified := v2only.Clone()
	modified.Descriptions[0].Value += " Exploited in the wild."
	return &nvdclean.Snapshot{
		CapturedAt: snap.CapturedAt.Add(24 * time.Hour),
		Entries:    []*nvdclean.Entry{added, modified},
	}
}

// TestWarmRestartEquivalence is the persistence acceptance test: a
// server restored from -data-dir state (checkpoint + a delta log
// spanning two sealed segments plus the active one, no pipeline run,
// different concurrency) must serve a view bit-identical to a cold
// full Clean of the merged feed.
func TestWarmRestartEquivalence(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	ctx := context.Background()
	dir := t.TempDir()

	// Cold server with persistence: full clean, checkpoint commit,
	// then three POSTed deltas spread across the segmented log — two
	// segments sealed (as the compaction path would leave them with
	// their background commits never run) and one active.
	srv1 := newServer(opts)
	str1, cp0, _ := openTestStore(t, srv1, dir, fsio.OS{})
	if cp0 != nil {
		t.Fatal("fresh directory has a checkpoint")
	}
	srv1.compactEvery = 1000 // keep the deltas in the log, not a checkpoint
	coldBoot(t, srv1, snap)
	ts := httptest.NewServer(srv1.handler())
	update := feedUpdate(t, snap)
	postFeed(t, ts, update)
	if _, err := str1.Seal(); err != nil {
		t.Fatal(err)
	}
	second := &nvdclean.Snapshot{CapturedAt: update.CapturedAt.Add(time.Hour)}
	again := update.Entries[0].Clone()
	again.Descriptions[0].Value += " Patched."
	second.Entries = []*nvdclean.Entry{again}
	postFeed(t, ts, second)
	if _, err := str1.Seal(); err != nil {
		t.Fatal(err)
	}
	third := &nvdclean.Snapshot{CapturedAt: update.CapturedAt.Add(2 * time.Hour)}
	once := update.Entries[1].Clone()
	once.Descriptions[0].Value += " Regression confirmed."
	third.Entries = []*nvdclean.Entry{once}
	postFeed(t, ts, third)
	ts.Close()
	merged := srv1.cur.Load().res.Original
	if err := srv1.closeStore(); err != nil {
		t.Fatal(err)
	}

	// Warm restart: restore checkpoint, replay the segments — no Clean.
	str2, cp, logged, notes, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || len(logged) != 3 {
		t.Fatalf("reopen: checkpoint=%v deltas=%d notes=%v", cp != nil, len(logged), notes)
	}
	if str2.SealedSegments() != 2 || str2.ActiveRecords() != 1 {
		t.Fatalf("reopened log shape: sealed=%d active=%d, want 2/1", str2.SealedSegments(), str2.ActiveRecords())
	}
	warmOpts := opts
	warmOpts.Concurrency = 3 // concurrency is a wall-clock knob, never bits
	if cp.Index == nil {
		t.Fatalf("restored checkpoint carried no index segments (note %q)", cp.IndexNote)
	}
	// The production warm boot: the checkpoint's restored lazy index
	// anchors the base generation, and the logged deltas advance it
	// incrementally.
	srvWarm := newServer(warmOpts)
	srvWarm.attachStore(str2)
	defer srvWarm.closeStore()
	if _, err := srvWarm.advance(ctx, transition{cp: cp, delta: mergeDeltas(cp.Original, logged)}); err != nil {
		t.Fatal(err)
	}
	if res := srvWarm.cur.Load().res; res.Engine == nil || res.Engine != cp.Engine {
		t.Error("warm restart should reuse the restored engine (v2-only delta)")
	}

	// Cold reference: full Clean of the merged feed, in-memory.
	coldOpts := opts
	coldOpts.Concurrency = 2
	srvCold := newServer(coldOpts)
	coldBoot(t, srvCold, merged)

	stWarm := srvWarm.cur.Load()
	stCold := srvCold.cur.Load()
	if stWarm.res.Cleaned.Len() != stCold.res.Cleaned.Len() {
		t.Fatalf("entry counts differ: %d vs %d", stWarm.res.Cleaned.Len(), stCold.res.Cleaned.Len())
	}

	// Every served CVE view must be bit-identical.
	for _, e := range stCold.res.Cleaned.Entries {
		we := stWarm.res.Cleaned.ByID(e.ID)
		if we == nil {
			t.Fatalf("warm view lacks %s", e.ID)
		}
		cold, err := json.Marshal(stCold.view(e))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := json.Marshal(stWarm.view(we))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("view of %s differs:\ncold: %s\nwarm: %s", e.ID, cold, warm)
		}
	}

	// Every query answer must be bit-identical — across restart AND
	// across the warm server's indexed vs scan paths.
	for _, p := range paramGrid(stCold) {
		cold := marshalResponse(t, stCold.queryIndexed(p))
		warm := marshalResponse(t, stWarm.queryIndexed(p))
		if !bytes.Equal(cold, warm) {
			t.Fatalf("query %+v differs across restart:\ncold: %s\nwarm: %s", p, cold, warm)
		}
		if scan := marshalResponse(t, stWarm.queryScan(p)); !bytes.Equal(warm, scan) {
			t.Fatalf("query %+v: warm index differs from scan", p)
		}
	}

	// The deterministic /stats content must agree too.
	coldStats, warmStats := statsView(t, srvCold), statsView(t, srvWarm)
	for _, k := range []string{"entries", "distinctVendors", "distinctProducts", "naming", "cweCorrection", "crawl", "engine"} {
		c, _ := json.Marshal(coldStats[k])
		w, _ := json.Marshal(warmStats[k])
		if !bytes.Equal(c, w) {
			t.Errorf("stats[%s] differs: cold %s warm %s", k, c, w)
		}
	}
}

func statsView(t *testing.T, srv *server) map[string]any {
	t.Helper()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var stats map[string]any
	if code := getJSON(t, ts, "/stats", &stats); code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	return stats
}

// TestFeedPersistsAndCompacts drives POST /feed with a store attached
// past the compaction threshold and proves the log folds into a new
// checkpoint that restores cleanly.
func TestFeedPersistsAndCompacts(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 4
	dir := t.TempDir()
	srv := newServer(opts)
	str, _, _ := openTestStore(t, srv, dir, fsio.OS{})
	srv.compactEvery = 2
	coldBoot(t, srv, snap)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	base := feedUpdate(t, snap)
	sum1 := postFeed(t, ts, base)
	if sum1["compactionQueued"] == true {
		t.Fatal("compacted after one delta with compactEvery=2")
	}
	if str.LogRecords() != 1 {
		t.Fatalf("log records = %d, want 1", str.LogRecords())
	}
	second := &nvdclean.Snapshot{CapturedAt: base.CapturedAt.Add(time.Hour)}
	again := base.Entries[0].Clone()
	again.Descriptions[0].Value += " Patched."
	second.Entries = []*nvdclean.Entry{again}
	sum2 := postFeed(t, ts, second)
	if sum2["compactionQueued"] != true {
		t.Fatalf("second delta should compact: %v", sum2)
	}
	commitIdle(t, srv)
	if str.LogRecords() != 0 || str.Generation() != 2 {
		t.Fatalf("after compaction: gen=%d records=%d", str.Generation(), str.LogRecords())
	}
	srv.closeStore()

	// The compacted store restores to exactly the serving state.
	str2, cp, logged, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer str2.Close()
	if cp == nil || cp.Generation != 2 || len(logged) != 0 {
		t.Fatalf("restore after compaction: gen=%v deltas=%d", cp.Generation, len(logged))
	}
	res, err := nvdclean.RestoreResult(cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := srv.cur.Load().res
	if res.Cleaned.Len() != want.Cleaned.Len() {
		t.Fatalf("restored %d entries, want %d", res.Cleaned.Len(), want.Cleaned.Len())
	}
	for i, e := range want.Cleaned.Entries {
		if !e.Equal(res.Cleaned.Entries[i]) {
			t.Fatalf("restored cleaned entry %d (%s) differs", i, e.ID)
		}
	}
}
