package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/fsio"
	"nvdclean/internal/gen"
	"nvdclean/internal/store"
)

// enospcDecider fails every mutating filesystem op with ENOSPC except
// Truncate: shrinking a file needs no new space, which is exactly what
// a real full disk allows. Keeping truncate working lets the WAL's
// failed-append rollback succeed, so the log is not poisoned and the
// daemon can resume appending the moment space frees up.
func enospcDecider(op fsio.Op) fsio.Decision {
	if op.Kind == fsio.OpTruncate {
		return fsio.Decision{}
	}
	return fsio.Decision{Err: syscall.ENOSPC}
}

// degradedServer builds a daemon over a store whose filesystem is an
// injector, with the recovery probe cadence shrunk to test speed.
func degradedServer(t *testing.T) (*server, *nvdclean.Snapshot, *fsio.Injector, string) {
	t.Helper()
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	srv := newServer(opts)
	inj := fsio.NewInjector(fsio.OS{})
	dir := t.TempDir()
	openTestStore(t, srv, dir, inj)
	srv.health.probeInitial = 5 * time.Millisecond
	srv.health.probeMax = 20 * time.Millisecond
	// The cold boot commits its checkpoint, so the store mirrors the
	// served view.
	coldBoot(t, srv, snap)
	return srv, snap, inj, dir
}

// namedUpdate clones a v2-only entry from snap under a fresh CVE ID,
// so successive posts carry non-empty, distinct deltas.
func namedUpdate(t *testing.T, snap *nvdclean.Snapshot, id string) *nvdclean.Snapshot {
	t.Helper()
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil {
			added := e.Clone()
			added.ID = id
			return &nvdclean.Snapshot{
				CapturedAt: snap.CapturedAt.Add(24 * time.Hour),
				Entries:    []*nvdclean.Entry{added},
			}
		}
	}
	t.Fatal("no v2-only entry in snapshot")
	return nil
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestDegradedModeServing is the acceptance scenario for fail-read-only
// serving: under persistent ENOSPC the daemon keeps answering reads
// byte-identically, reports degraded on /readyz, /stats and /metrics,
// rejects POST /feed with 507 + Retry-After, and — once the fault
// clears — recovers by itself and accepts writes again.
func TestDegradedModeServing(t *testing.T) {
	srv, snap, inj, dir := degradedServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Healthy baseline: one ingest succeeds end to end.
	postFeed(t, ts, namedUpdate(t, snap, "CVE-2018-9999"))
	cveID := srv.cur.Load().res.Cleaned.Entries[0].ID
	stBefore, cveBefore := getBody(t, ts, "/cve/"+cveID)
	if stBefore != 200 {
		t.Fatalf("baseline GET /cve = %d", stBefore)
	}
	_, queryBefore := getBody(t, ts, "/query?limit=5")

	// The disk fills.
	inj.SetDecide(enospcDecider)

	// The write is rejected with 507 (disk full), Retry-After, and a
	// body naming the cause — not a bare 500.
	var feedBody bytes.Buffer
	update2 := namedUpdate(t, snap, "CVE-2018-7777")
	if err := nvdclean.WriteFeed(&feedBody, update2); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", &feedBody)
	if err != nil {
		t.Fatal(err)
	}
	rejected := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&rejected); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 507 {
		t.Fatalf("POST /feed on full disk = %d (want 507): %v", resp.StatusCode, rejected)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded rejection carries no Retry-After")
	}
	if rejected["degraded"] != true {
		t.Fatalf("rejection body does not say degraded: %v", rejected)
	}
	if !strings.Contains(rejected["error"].(string), "no space left") {
		t.Fatalf("rejection does not name the cause: %v", rejected["error"])
	}

	// A second post is rejected up front (same status, no append try).
	resp, err = ts.Client().Post(ts.URL+"/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 507 {
		t.Fatalf("repeat POST /feed = %d (want 507)", resp.StatusCode)
	}

	// Reads are untouched: byte-identical to the pre-fault responses.
	if st, b := getBody(t, ts, "/cve/"+cveID); st != 200 || !bytes.Equal(b, cveBefore) {
		t.Fatalf("degraded GET /cve changed: status %d, bytes equal %v", st, bytes.Equal(b, cveBefore))
	}
	if _, b := getBody(t, ts, "/query?limit=5"); !bytes.Equal(b, queryBefore) {
		t.Fatal("degraded GET /query changed bytes")
	}

	// /readyz stays 200 (reads still serve; do not rotate the daemon
	// out of the pool) but says degraded, with the cause.
	ready := map[string]string{}
	if st := getJSON(t, ts, "/readyz", &ready); st != 200 {
		t.Fatalf("degraded /readyz = %d", st)
	}
	if ready["status"] != "degraded" || !strings.Contains(ready["reason"], "no space left") {
		t.Fatalf("degraded /readyz body: %v", ready)
	}

	// /stats carries the health block.
	stats := struct {
		Store struct {
			Health healthStatus `json:"health"`
		} `json:"store"`
	}{}
	if st := getJSON(t, ts, "/stats", &stats); st != 200 {
		t.Fatalf("degraded /stats = %d", st)
	}
	h := stats.Store.Health
	if !h.Degraded || !h.DiskFull || h.Failures == 0 || h.RetryAfterMs <= 0 {
		t.Fatalf("degraded /stats health block: %+v", h)
	}

	// /metrics exports the degraded gauge and failure counter.
	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "nvdserve_store_degraded 1") {
		t.Fatal("metrics do not report nvdserve_store_degraded 1")
	}
	if strings.Contains(string(metrics), "nvdserve_store_persist_failures_total 0\n") {
		t.Fatal("metrics report zero persist failures while degraded")
	}

	// Space frees up; the probe notices and re-admits writes without
	// any operator action.
	inj.SetDecide(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if degraded, _, _ := srv.health.isDegraded(); !degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not leave degraded mode after the fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	recovered := map[string]any{}
	if st := getJSON(t, ts, "/readyz", &recovered); st != 200 || recovered["status"] != "ok" {
		t.Fatalf("recovered /readyz = %d %v", st, recovered)
	}

	// Ingest works again, and the recovery is visible on the scrape.
	postFeed(t, ts, update2)
	_, metrics = getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "nvdserve_store_degraded 0") {
		t.Fatal("metrics still report degraded after recovery")
	}
	if strings.Contains(string(metrics), "nvdserve_store_degraded_recoveries_total 0\n") {
		t.Fatal("metrics report zero recoveries after a recovery")
	}
	if strings.Contains(string(metrics), "nvdserve_store_probes_total 0\n") {
		t.Fatal("metrics report zero probes after probed recovery")
	}

	// The store really holds both accepted deltas: a clean reopen of
	// the directory replays them.
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	st2, _, deltas, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(deltas) != 2 {
		t.Fatalf("reopened store replays %d deltas (want 2)", len(deltas))
	}
}

// TestDegradedSealRecordsFailure covers the compaction entry point: a
// Seal that cannot create the successor segment degrades the daemon
// exactly like a failed append.
func TestDegradedSealRecordsFailure(t *testing.T) {
	srv, snap, inj, _ := degradedServer(t)
	srv.compactEvery = 1 // every accepted delta trips compaction
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Fail only segment creation: the append lands (the active segment
	// is already open), then Seal's OpenFile for the successor hits
	// ENOSPC and the daemon degrades.
	inj.SetDecide(func(op fsio.Op) fsio.Decision {
		if op.Kind == fsio.OpOpenFile && strings.Contains(op.Path, "log-") {
			return fsio.Decision{Err: syscall.ENOSPC}
		}
		return fsio.Decision{}
	})
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, namedUpdate(t, snap, "CVE-2018-6666")); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	summary := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The delta itself was durably appended, so the ingest succeeds;
	// only the compaction step failed, and it reported it.
	if resp.StatusCode != 200 {
		t.Fatalf("POST /feed = %d: %v", resp.StatusCode, summary)
	}
	if summary["compactionError"] == nil {
		t.Fatalf("summary has no compactionError: %v", summary)
	}
	if degraded, _, diskFull := srv.health.isDegraded(); !degraded || !diskFull {
		t.Fatalf("failed seal did not degrade (degraded=%v diskFull=%v)", degraded, diskFull)
	}

	// Clearing the fault lets the probe recover the daemon.
	inj.SetDecide(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if degraded, _, _ := srv.health.isDegraded(); !degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not recover after seal fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
