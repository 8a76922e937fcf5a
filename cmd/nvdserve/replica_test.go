package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/store"
)

// surveyOf returns the completed §4.2 naming survey of snap, which a
// checkpoint carries.
func surveyOf(snap *cve.Snapshot) *naming.Survey {
	sv := naming.NewSurvey(snap)
	sv.AnalyzeProducts(sv.AnalyzeVendors(1).Consolidate(naming.HeuristicJudge{}), 1)
	return sv
}

// protoPrimary builds a store-backed server with a minimal committed
// checkpoint — enough for the /replicate protocol handlers, which never
// touch the serving generation — without paying a pipeline run.
func protoPrimary(t *testing.T) *server {
	t.Helper()
	srv := newServer(nvdclean.Options{})
	str, _, _ := openTestStore(t, srv, t.TempDir(), fsio.OS{})
	e := &cve.Entry{
		ID:           "CVE-2020-0001",
		Published:    time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC),
		Descriptions: []cve.Description{{Value: "A vulnerability."}},
		CPEs:         []cpe.Name{cpe.NewName(cpe.PartApplication, "acme", "anvil", "")},
	}
	snap := &cve.Snapshot{CapturedAt: time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC), Entries: []*cve.Entry{e}}
	cp := &store.Checkpoint{Original: snap, Survey: surveyOf(snap), State: &store.State{}}
	if err := str.Commit(cp); err != nil {
		t.Fatal(err)
	}
	added := e.Clone()
	added.ID = "CVE-2020-0002"
	d := &cve.Delta{CapturedAt: snap.CapturedAt.Add(time.Hour), Added: []*cve.Entry{added}}
	d.Sort()
	if err := str.AppendDelta(d); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestReplicateEndpoints pins the primary-side wire protocol: manifest
// shape, verbatim checkpoint bytes, and the /replicate/log status
// grammar — 200/206 for bytes, 204 + Retry-After at the watermark, 410
// for retired segments, 404 for future ones, 400 for bad cursors.
func TestReplicateEndpoints(t *testing.T) {
	srv := protoPrimary(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// A store-less daemon has no stream to offer.
	none := httptest.NewServer(newServer(nvdclean.Options{}).handler())
	defer none.Close()
	var e map[string]any
	if code := getJSON(t, none, "/replicate/manifest", &e); code != http.StatusNotFound {
		t.Errorf("store-less manifest = %d, want 404", code)
	}

	var rm store.ReplicationManifest
	if code := getJSON(t, ts, "/replicate/manifest", &rm); code != http.StatusOK {
		t.Fatalf("/replicate/manifest = %d", code)
	}
	if rm.Generation != 1 || rm.CheckpointSeq != 0 || rm.WALSeq != 1 || len(rm.Files) == 0 {
		t.Fatalf("manifest = %+v", rm)
	}

	// Checkpoint files ship verbatim, sized by the manifest.
	resp, err := ts.Client().Get(ts.URL + "/replicate/checkpoint/" + rm.Files[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int64(body.Len()) != rm.Files[0].Size {
		t.Fatalf("checkpoint file: %d, %d bytes (manifest says %d)", resp.StatusCode, body.Len(), rm.Files[0].Size)
	}
	if code := getJSON(t, ts, "/replicate/checkpoint/no-such-file", &e); code != http.StatusNotFound {
		t.Errorf("missing checkpoint file = %d, want 404", code)
	}

	get := func(path, rng string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		return resp, b.Bytes()
	}

	// Bad cursors are 400, not empty responses.
	for _, path := range []string{"/replicate/log", "/replicate/log?from=0", "/replicate/log?from=x"} {
		if resp, _ := get(path, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", path, resp.StatusCode)
		}
	}
	if resp, _ := get("/replicate/log?from=1", "bytes=oops"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Range = %d, want 400", resp.StatusCode)
	}

	// The active segment's committed bytes, whole and resumed.
	resp1, full := get("/replicate/log?from=1", "")
	if resp1.StatusCode != http.StatusOK || len(full) == 0 {
		t.Fatalf("log from=1: %d, %d bytes", resp1.StatusCode, len(full))
	}
	if resp1.Header.Get("X-Nvdserve-Sealed") != "0" || resp1.Header.Get("X-Nvdserve-Wal-Seq") != "1" {
		t.Errorf("log headers: sealed=%q walSeq=%q", resp1.Header.Get("X-Nvdserve-Sealed"), resp1.Header.Get("X-Nvdserve-Wal-Seq"))
	}
	resp2, tail := get("/replicate/log?from=1", "bytes=8-")
	if resp2.StatusCode != http.StatusPartialContent || !bytes.Equal(tail, full[8:]) {
		t.Fatalf("resumed log: %d, %d bytes", resp2.StatusCode, len(tail))
	}
	if cr := resp2.Header.Get("Content-Range"); !strings.HasPrefix(cr, "bytes 8-") {
		t.Errorf("Content-Range = %q", cr)
	}

	// At the committed end: 204 with a Retry-After hint, no body to parse.
	respEnd, _ := get(fmt.Sprintf("/replicate/log?from=1"), fmt.Sprintf("bytes=%d-", len(full)))
	if respEnd.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up log = %d, want 204", respEnd.StatusCode)
	}
	if respEnd.Header.Get("Retry-After") == "" {
		t.Error("204 carries no Retry-After")
	}

	// A segment that does not exist yet.
	if resp, _ := get("/replicate/log?from=9", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("future segment = %d, want 404", resp.StatusCode)
	}

	// Retire segment 1 into a checkpoint: the cursor's segment is gone
	// and the 410 tells the follower to re-bootstrap.
	if _, err := srv.persist.Seal(); err != nil {
		t.Fatal(err)
	}
	snapResp, _ := get("/replicate/log?from=1", "")
	if snapResp.StatusCode != http.StatusOK || snapResp.Header.Get("X-Nvdserve-Sealed") != "1" {
		t.Fatalf("sealed segment read: %d sealed=%q", snapResp.StatusCode, snapResp.Header.Get("X-Nvdserve-Sealed"))
	}
	empty := &cve.Snapshot{CapturedAt: time.Now().UTC()}
	cp2 := &store.Checkpoint{Original: empty, Survey: surveyOf(empty), State: &store.State{}}
	if err := srv.persist.CommitSealed(cp2, 1); err != nil {
		t.Fatal(err)
	}
	respGone, goneBody := get("/replicate/log?from=1", "")
	if respGone.StatusCode != http.StatusGone {
		t.Fatalf("retired segment = %d, want 410", respGone.StatusCode)
	}
	if !strings.Contains(string(goneBody), "/replicate/manifest") {
		t.Errorf("410 body does not point at the manifest: %s", goneBody)
	}
	if respGone.Header.Get("X-Nvdserve-Watermark") != "1" {
		t.Errorf("410 watermark = %q, want 1", respGone.Header.Get("X-Nvdserve-Watermark"))
	}
}

// catchUp drives the follower's sync loop synchronously until one poll
// confirms it holds every committed byte the primary has. Callers make
// the primary quiescent first — no ingests, and no background commit
// still writing (commitIdle) — so the first successful wait>0 outcome
// means fully caught up.
func catchUp(t *testing.T, ctx context.Context, f *follower) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("follower never caught up")
		}
		wait, err := f.syncOnce(ctx)
		if err != nil {
			t.Fatalf("syncOnce: %v", err)
		}
		if wait > 0 {
			return
		}
	}
}

// assertConverged proves the follower's serving view is byte-identical
// to the primary's: every /cve view and every /query answer (indexed
// and scan) renders the same bytes on both.
func assertConverged(t *testing.T, label string, p, f *server) {
	t.Helper()
	stP, stF := p.cur.Load(), f.cur.Load()
	if stP.res.Cleaned.Len() != stF.res.Cleaned.Len() {
		t.Fatalf("%s: entry counts differ: primary %d, follower %d", label, stP.res.Cleaned.Len(), stF.res.Cleaned.Len())
	}
	for _, e := range stP.res.Cleaned.Entries {
		fe := stF.res.Cleaned.ByID(e.ID)
		if fe == nil {
			t.Fatalf("%s: follower lacks %s", label, e.ID)
		}
		pb, err := json.Marshal(stP.view(e))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := json.Marshal(stF.view(fe))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("%s: view of %s differs:\nprimary:  %s\nfollower: %s", label, e.ID, pb, fb)
		}
	}
	for _, q := range paramGrid(stP) {
		pb := marshalResponse(t, stP.queryIndexed(q))
		fb := marshalResponse(t, stF.queryIndexed(q))
		if !bytes.Equal(pb, fb) {
			t.Fatalf("%s: query %+v differs across replicas:\nprimary:  %s\nfollower: %s", label, q, pb, fb)
		}
		if scan := marshalResponse(t, stF.queryScan(q)); !bytes.Equal(fb, scan) {
			t.Fatalf("%s: query %+v: follower index differs from scan", label, q)
		}
	}
}

// TestFollowerEquivalence is the replication acceptance test: a
// follower bootstrapped from the primary's shipped checkpoint and
// tailing its stream — across two sealed segments, a live tail, and a
// primary compaction that forces a 410 re-bootstrap — serves a view
// byte-identical to the primary's, with equal ETag validators at the
// same stream position.
func TestFollowerEquivalence(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	ctx := context.Background()

	// Primary: full clean + checkpoint, then three ingested deltas
	// spread over two sealed segments plus the active tail.
	primary := newServer(opts)
	pStr, _, _ := openTestStore(t, primary, t.TempDir(), fsio.OS{})
	primary.compactEvery = 1000
	coldBoot(t, primary, snap)
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()

	update := feedUpdate(t, snap)
	postFeed(t, ts, update)
	if _, err := pStr.Seal(); err != nil {
		t.Fatal(err)
	}
	second := &nvdclean.Snapshot{CapturedAt: update.CapturedAt.Add(time.Hour)}
	again := update.Entries[0].Clone()
	again.Descriptions[0].Value += " Patched."
	second.Entries = []*nvdclean.Entry{again}
	postFeed(t, ts, second)
	if _, err := pStr.Seal(); err != nil {
		t.Fatal(err)
	}
	third := &nvdclean.Snapshot{CapturedAt: update.CapturedAt.Add(2 * time.Hour)}
	once := update.Entries[1].Clone()
	once.Descriptions[0].Value += " Regression confirmed."
	third.Entries = []*nvdclean.Entry{once}
	postFeed(t, ts, third)
	if pStr.SealedSegments() != 2 || pStr.ActiveRecords() != 1 {
		t.Fatalf("primary log shape: sealed=%d active=%d, want 2/1", pStr.SealedSegments(), pStr.ActiveRecords())
	}

	// Follower: own store, different concurrency (a wall-clock knob,
	// never bits), driven synchronously for determinism.
	fOpts := opts
	fOpts.Concurrency = 3
	fsrv := newServer(fOpts)
	fStr, _, _ := openTestStore(t, fsrv, t.TempDir(), fsio.OS{})
	fol := newFollower(fsrv, ts.URL, 50*time.Millisecond, 15*time.Second)
	fsrv.follower = fol
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()

	// Before the bootstrap the replica serves nothing and is not ready.
	var probe map[string]any
	if code := getJSON(t, fts, "/readyz", &probe); code != http.StatusServiceUnavailable {
		t.Fatalf("unbootstrapped /readyz = %d, want 503", code)
	}

	if err := fol.bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if fsrv.cur.Load() == nil {
		t.Fatal("bootstrap installed no serving generation")
	}
	catchUp(t, ctx, fol)

	// The stream positions — and therefore the ETag validators — align.
	pSeq, pOff := pStr.LastPosition()
	fSeq, fOff := fStr.LastPosition()
	if pSeq != fSeq || pOff != fOff {
		t.Fatalf("positions diverge: primary (%d,%d) follower (%d,%d)", pSeq, pOff, fSeq, fOff)
	}
	if pe, fe := primary.cur.Load().etagFor(false), fsrv.cur.Load().etagFor(false); pe != fe {
		t.Fatalf("ETag validators diverge at the same position: primary %s follower %s", pe, fe)
	}
	// The follower sealed its copies in lockstep and checkpointed them
	// locally through its background committer, so its own restarts
	// stay cheap.
	commitIdle(t, fsrv)
	if fStr.Watermark() == 0 {
		t.Error("follower never checkpointed its sealed segments")
	}
	assertConverged(t, "live tail", primary, fsrv)

	// A replica refuses writes and points at the primary.
	resp, err := fts.Client().Post(fts.URL+"/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower POST /feed = %d, want 403", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != ts.URL+"/feed" {
		t.Errorf("403 Location = %q, want %q", loc, ts.URL+"/feed")
	}

	// Both roles report a replication block on /stats.
	var fStats map[string]any
	if code := getJSON(t, fts, "/stats", &fStats); code != http.StatusOK {
		t.Fatalf("follower /stats = %d", code)
	}
	frepl, ok := fStats["replication"].(map[string]any)
	if !ok {
		t.Fatalf("follower /stats has no replication block: %v", fStats)
	}
	if frepl["role"] != "follower" || frepl["primary"] != ts.URL || frepl["synced"] != true {
		t.Errorf("follower replication block = %v", frepl)
	}
	if frepl["lagSeconds"].(float64) < 0 {
		t.Errorf("synced follower reports unknown lag: %v", frepl["lagSeconds"])
	}
	var pStats map[string]any
	if code := getJSON(t, ts, "/stats", &pStats); code != http.StatusOK {
		t.Fatalf("primary /stats = %d", code)
	}
	prepl, ok := pStats["replication"].(map[string]any)
	if !ok || prepl["role"] != "primary" {
		t.Fatalf("primary replication block = %v", pStats["replication"])
	}
	if uint64(prepl["cursorSegment"].(float64)) != pSeq {
		t.Errorf("primary cursorSegment = %v, want %d", prepl["cursorSegment"], pSeq)
	}

	// Readiness gates on lag: a stale caught-up stamp flips 503, a
	// fresh confirmation restores 200.
	if code := getJSON(t, fts, "/readyz", &probe); code != http.StatusOK {
		t.Fatalf("caught-up follower /readyz = %d, want 200", code)
	}
	fol.caughtUpAt.Store(time.Now().Add(-time.Hour).UnixNano())
	if code := getJSON(t, fts, "/readyz", &probe); code != http.StatusServiceUnavailable {
		t.Fatalf("lagging follower /readyz = %d, want 503", code)
	}
	if !strings.Contains(probe["status"].(string), "replication lag") {
		t.Errorf("lag 503 reason = %v", probe["status"])
	}
	fol.caughtUpAt.Store(time.Now().UnixNano())

	// Compaction catch-up: the primary folds everything — including the
	// follower's cursor segment — into a fresh checkpoint; the next poll
	// sees 410 and re-bootstraps from the shipped state.
	primary.compactEvery = 1
	fourth := &nvdclean.Snapshot{CapturedAt: update.CapturedAt.Add(3 * time.Hour)}
	more := update.Entries[0].Clone()
	more.Descriptions[0].Value += " Fix verified."
	fourth.Entries = []*nvdclean.Entry{more}
	sum := postFeed(t, ts, fourth)
	if sum["compactionQueued"] != true {
		t.Fatalf("primary did not compact: %v", sum)
	}
	commitIdle(t, primary)
	if pStr.Watermark() < 3 {
		t.Fatalf("primary watermark = %d after compacting the tail", pStr.Watermark())
	}
	before := fol.bootstraps.Load()
	catchUp(t, ctx, fol)
	if fol.bootstraps.Load() != before+1 {
		t.Fatalf("compaction did not force a re-bootstrap: %d -> %d", before, fol.bootstraps.Load())
	}
	assertConverged(t, "post-compaction", primary, fsrv)

	// The follower's own store survives a restart: reopen and check it
	// lands on the installed generation with no recovery notes.
	if seq, _ := fsrv.persist.ActivePosition(); seq == 0 {
		t.Fatal("follower store has no active segment after install")
	}
}

// TestNvdserveReplicaSmoke is the CI replica step: a real primary and a
// real follower as separate processes, the follower bootstrapping and
// tailing over actual HTTP until the two daemons serve identical bytes
// with identical validators.
func TestNvdserveReplicaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke test skipped in -short")
	}
	bin := buildNvdserve(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	pDir := filepath.Join(t.TempDir(), "primary")
	p := startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", pDir)

	// Ingest one delta so the follower has both a checkpoint and live
	// tail bytes to replicate.
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, feedUpdate(t, snap)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary POST /feed = %d", resp.StatusCode)
	}

	fDir := filepath.Join(t.TempDir(), "replica")
	f := startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", fDir,
		"-follow", p.base, "-follow-poll", "100ms")

	// The replica turns ready once bootstrapped and caught up.
	deadline := time.Now().Add(90 * time.Second)
	for {
		var probe map[string]any
		if code := f.get(t, "/readyz", &probe); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Identical content, identical validator, on the ingested entry.
	pCode, pHdr, pBody := p.getRaw(t, "/cve/CVE-2018-9999")
	fCode, fHdr, fBody := f.getRaw(t, "/cve/CVE-2018-9999")
	if pCode != http.StatusOK || fCode != http.StatusOK {
		t.Fatalf("/cve across replicas: primary %d, follower %d", pCode, fCode)
	}
	if pBody != fBody {
		t.Fatalf("replica serves different bytes:\nprimary:  %s\nfollower: %s", pBody, fBody)
	}
	if pHdr.Get("ETag") == "" || pHdr.Get("ETag") != fHdr.Get("ETag") {
		t.Fatalf("ETags diverge: primary %q, follower %q", pHdr.Get("ETag"), fHdr.Get("ETag"))
	}

	// Role surfaces: /stats blocks and 403 on replica writes.
	var stats map[string]any
	if code := p.get(t, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("primary /stats = %d", code)
	}
	if repl, _ := stats["replication"].(map[string]any); repl["role"] != "primary" {
		t.Errorf("primary replication role = %v", stats["replication"])
	}
	if code := f.get(t, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("follower /stats = %d", code)
	}
	if repl, _ := stats["replication"].(map[string]any); repl["role"] != "follower" {
		t.Errorf("follower replication role = %v", stats["replication"])
	}
	resp, err = http.Post(f.base+"/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica POST /feed = %d, want 403", resp.StatusCode)
	}

	// The replica metric families render with real values.
	code, _, metrics := f.getRaw(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("follower /metrics = %d", code)
	}
	for _, fam := range []string{
		"nvdserve_replica_follower 1",
		"nvdserve_replica_lag_seconds",
		"nvdserve_replica_bootstraps_total",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("follower /metrics missing %s", fam)
		}
	}

	f.shutdown(t)
	p.shutdown(t)
}
