package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// world generates a synthetic snapshot from cfg with the fast LR-only
// options the in-process tests clean it with, crawling its simulated
// web.
func world(tb testing.TB, cfg nvdclean.GenConfig) (*nvdclean.Snapshot, nvdclean.Options) {
	tb.Helper()
	snap, truth, err := nvdclean.GenerateSnapshot(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, nvdclean.Options{
		Transport:   nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport(),
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
}

// raceWorld is the fixture of the race-stress tests, whose race
// surfaces depend neither on snapshot size nor on which models train.
func raceWorld(tb testing.TB) (*nvdclean.Snapshot, nvdclean.Options) {
	cfg := nvdclean.SmallScale()
	cfg.NumCVEs = 120
	cfg.NumVendors = 30
	return world(tb, cfg)
}

// openTestStore opens the store in dir through fs and attaches it to
// srv the way run does; the test's cleanup closes it. It returns what
// the store recovered.
func openTestStore(tb testing.TB, srv *server, dir string, fs fsio.FS) (*store.Store, *store.Checkpoint, []*nvdclean.Delta) {
	tb.Helper()
	st, cp, logged, _, err := store.OpenFS(dir, fs)
	if err != nil {
		tb.Fatal(err)
	}
	srv.attachStore(st)
	tb.Cleanup(func() { srv.closeStore() })
	return st, cp, logged
}

// coldBoot installs srv's first generation through the cold-boot
// transition run uses: a full Clean, committed inline when a store is
// attached.
func coldBoot(tb testing.TB, srv *server, snap *nvdclean.Snapshot) {
	tb.Helper()
	if _, err := srv.advance(context.Background(), transition{snap: snap}); err != nil {
		tb.Fatal(err)
	}
}

// commitIdle waits until srv's background committer has written every
// queued checkpoint and retired the segments it folds in — the point
// from which a test can read a compaction's result from the store.
func commitIdle(tb testing.TB, srv *server) {
	tb.Helper()
	deadline := time.Now().Add(time.Minute)
	for srv.committer.Stats().Pending || srv.persist.SealedSegments() > 0 {
		if time.Now().After(deadline) {
			tb.Fatal("background commits still pending after a minute")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// demoServer builds an in-process server over a tiny synthetic
// snapshot with fast training settings.
func demoServer(t *testing.T) (*server, *nvdclean.Snapshot) {
	t.Helper()
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	srv := newServer(opts)
	coldBoot(t, srv, snap)
	return srv, snap
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var health map[string]any
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if health["status"] != "ok" || int(health["entries"].(float64)) != snap.Len() {
		t.Fatalf("healthz = %v", health)
	}

	id := snap.Entries[0].ID
	var view cveView
	if code := getJSON(t, ts, "/cve/"+id, &view); code != http.StatusOK {
		t.Fatalf("/cve/%s = %d", id, code)
	}
	if view.ID != id || len(view.Affected) == 0 {
		t.Fatalf("cve view = %+v", view)
	}
	if view.EstimatedDisclosure == nil {
		t.Error("crawled demo server should estimate disclosure dates")
	}

	var missing map[string]any
	if code := getJSON(t, ts, "/cve/CVE-2098-9999", &missing); code != http.StatusNotFound {
		t.Errorf("missing CVE = %d, want 404", code)
	}

	// Query by the consolidated vendor of the first entry's first CPE.
	st := srv.cur.Load()
	vendor := st.res.Cleaned.ByID(id).CPEs[0].Vendor
	var q struct {
		Total   int `json:"total"`
		Results []struct {
			ID       string `json:"id"`
			Severity string `json:"severity"`
		} `json:"results"`
	}
	if code := getJSON(t, ts, "/query?vendor="+vendor, &q); code != http.StatusOK {
		t.Fatalf("/query = %d", code)
	}
	if q.Total == 0 || len(q.Results) == 0 {
		t.Fatalf("vendor query returned nothing: %+v", q)
	}
	if code := getJSON(t, ts, "/query?severity=High&limit=5", &q); code != http.StatusOK {
		t.Fatalf("/query severity = %d", code)
	}
	if len(q.Results) > 5 {
		t.Errorf("limit ignored: %d results", len(q.Results))
	}
	if code := getJSON(t, ts, "/query?severity=bogus", &q); code != http.StatusBadRequest {
		t.Errorf("bogus severity = %d, want 400", code)
	}

	// Unknown parameters are rejected, not silently ignored.
	var bad map[string]any
	if code := getJSON(t, ts, "/query?vendors="+vendor, &bad); code != http.StatusBadRequest {
		t.Errorf("unknown parameter = %d, want 400", code)
	}
	if code := getJSON(t, ts, "/query?offset=-1", &bad); code != http.StatusBadRequest {
		t.Errorf("negative offset = %d, want 400", code)
	}
	// Year 0 would mean "no year filter" and match every entry.
	for _, y := range []string{"0", "-3"} {
		if code := getJSON(t, ts, "/query?year="+y, &bad); code != http.StatusBadRequest {
			t.Errorf("year=%s = %d, want 400", y, code)
		}
	}

	// The page size is capped: a client cannot size the response
	// window arbitrarily, and the 400 reports the cap.
	if code := getJSON(t, ts, "/query?limit=1000000000", &bad); code != http.StatusBadRequest {
		t.Errorf("unbounded limit = %d, want 400", code)
	} else if !strings.Contains(bad["error"].(string), "1000") {
		t.Errorf("limit cap not reported: %v", bad["error"])
	}
	if code := getJSON(t, ts, "/query?limit=1000", &q); code != http.StatusOK {
		t.Errorf("limit at the cap = %d, want 200", code)
	}

	// limit/offset paginate one stable ordering: page 2 picks up
	// exactly where page 1 ended.
	var page1, page2, both struct {
		Total   int `json:"total"`
		Offset  int `json:"offset"`
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
	}
	if code := getJSON(t, ts, "/query?limit=4", &both); code != http.StatusOK {
		t.Fatalf("/query limit=4 = %d", code)
	}
	if code := getJSON(t, ts, "/query?limit=2", &page1); code != http.StatusOK {
		t.Fatalf("/query page1 = %d", code)
	}
	if code := getJSON(t, ts, "/query?limit=2&offset=2", &page2); code != http.StatusOK {
		t.Fatalf("/query page2 = %d", code)
	}
	if page2.Offset != 2 || page1.Total != both.Total || page2.Total != both.Total {
		t.Errorf("pagination metadata: %+v %+v %+v", page1, page2, both)
	}
	for i, r := range append(page1.Results, page2.Results...) {
		if i >= len(both.Results) || both.Results[i].ID != r.ID {
			t.Fatalf("paginated pages do not tile the unpaginated ordering")
		}
	}

	var stats map[string]any
	if code := getJSON(t, ts, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	if int(stats["entries"].(float64)) != snap.Len() || stats["engine"] == nil {
		t.Fatalf("stats = %v", stats)
	}
	// The index block reports the shards' keys and posting bytes.
	ix, ok := stats["index"].(map[string]any)
	if !ok {
		t.Fatalf("stats carries no index block: %v", stats)
	}
	if int(ix["entries"].(float64)) != snap.Len() {
		t.Errorf("index entries = %v, want %d", ix["entries"], snap.Len())
	}
	if ix["keys"].(float64) == 0 || ix["postingBytesResident"].(float64) == 0 {
		t.Errorf("built index reports empty postings: %v", ix)
	}
	if int(ix["format"].(float64)) < 1 {
		t.Errorf("index format version missing: %v", ix)
	}
	// Every daemon reports its replication role; a plain store-less
	// server is a primary with no stream state.
	repl, ok := stats["replication"].(map[string]any)
	if !ok {
		t.Fatalf("stats carries no replication block: %v", stats)
	}
	if repl["role"] != "primary" {
		t.Errorf("replication role = %v, want primary", repl["role"])
	}
}

// TestServerFeedUpdate posts an upsert feed (one new v2-only CVE + one
// modified description) and verifies the swap: new generation, entry
// served, engine warm-started, old generation untouched.
func TestServerFeedUpdate(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	before := srv.cur.Load()

	// A brand-new v2-only entry cloned from an existing one (so its
	// reference URLs exist in the simulated web), plus a modified
	// v2-only entry: neither touches the dual-labeled training split.
	var v2only *nvdclean.Entry
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil {
			v2only = e
			break
		}
	}
	if v2only == nil {
		t.Fatal("no v2-only entry in demo snapshot")
	}
	added := v2only.Clone()
	added.ID = "CVE-2018-9999"
	modified := v2only.Clone()
	modified.Descriptions[0].Value += " Exploited in the wild."

	update := &nvdclean.Snapshot{
		CapturedAt: snap.CapturedAt.Add(24 * time.Hour),
		Entries:    []*nvdclean.Entry{added, modified},
	}
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, update); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /feed = %d: %v", resp.StatusCode, summary)
	}
	if int(summary["added"].(float64)) != 1 || int(summary["modified"].(float64)) != 1 {
		t.Fatalf("summary = %v", summary)
	}
	if summary["engineWarmStart"] != true {
		t.Errorf("v2-only update should warm-start the engine: %v", summary)
	}

	after := srv.cur.Load()
	if after == before || after.generation != before.generation+1 {
		t.Fatalf("generation did not advance: %d -> %d", before.generation, after.generation)
	}
	if !after.incremental {
		t.Error("feed update should be an incremental generation")
	}
	// The old generation still serves its own view (zero downtime).
	if before.res.Cleaned.ByID("CVE-2018-9999") != nil {
		t.Error("previous generation was mutated by the update")
	}

	var view cveView
	if code := getJSON(t, ts, "/cve/CVE-2018-9999", &view); code != http.StatusOK {
		t.Fatalf("new CVE not served: %d", code)
	}
	if !view.Backported || view.PV3Score == nil {
		t.Errorf("new v2-only CVE should carry a backported score: %+v", view)
	}

	// Re-posting the same update is a no-op.
	body.Reset()
	if err := nvdclean.WriteFeed(&body, update); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Post(ts.URL+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	summary = map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int(summary["changed"].(float64)) != 0 {
		t.Errorf("idempotent repost changed %v entries", summary["changed"])
	}
}

// TestFeedRejectsDuplicateIDs posts bodies that name one new CVE ID
// twice, in both modes, an upsert that names a CVE the snapshot holds
// under another spelling, a replacing feed with no entries, which
// would remove every one, and a replacing body that holds two feed
// documents: each must be answered 400 naming the IDs and leave the
// serving generation as it was, rather than serve two entries under
// one CVE, drop the second document or fail as a server fault. A
// replacing feed may respell an ID.
func TestFeedRejectsDuplicateIDs(t *testing.T) {
	srv, snap := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	before := srv.cur.Load()

	dup := snap.Entries[0].Clone()
	dup.ID = "CVE-2018-9999"
	held := snap.Entries[0]
	year, seq, err := cve.SplitID(held.ID)
	if err != nil {
		t.Fatal(err)
	}
	respelled := held.Clone()
	respelled.ID = fmt.Sprintf("CVE-%d-%08d", year, seq)
	feed := func(entries []*nvdclean.Entry) []byte {
		t.Helper()
		var body bytes.Buffer
		if err := nvdclean.WriteFeed(&body, &nvdclean.Snapshot{CapturedAt: snap.CapturedAt, Entries: entries}); err != nil {
			t.Fatal(err)
		}
		return body.Bytes()
	}
	post := func(mode string, body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/feed?mode="+mode, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, msg
	}
	last := len(snap.Entries) - 2
	for _, tc := range []struct {
		name, mode string
		body       []byte
		ids        []string // the IDs the 400 must name
	}{
		{"repeated ID", "upsert", feed([]*nvdclean.Entry{dup, dup}), []string{dup.ID}},
		{"repeated ID", "replace", feed(append(append([]*nvdclean.Entry(nil), snap.Entries...), dup, dup)), []string{dup.ID}},
		{"respelled ID", "upsert", feed([]*nvdclean.Entry{respelled}), []string{respelled.ID, held.ID}},
		{"empty capture", "replace", feed(nil), nil},
		// The whole snapshot, split across two documents in one body:
		// reading only the first would remove the last two entries.
		{"two documents", "replace", append(feed(snap.Entries[:last]), feed(snap.Entries[last:])...), nil},
		// Its oldest entries hold no dual-labeled CVE to train on.
		{"too few to train", "replace", feed(snap.Entries[:10]), nil},
	} {
		code, msg := post(tc.mode, tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s, %s: POST /feed = %d, want 400: %v", tc.name, tc.mode, code, msg)
		}
		for _, id := range tc.ids {
			if e, _ := msg["error"].(string); !strings.Contains(e, id) {
				t.Errorf("%s, %s: 400 does not name %s: %v", tc.name, tc.mode, id, msg)
			}
		}
		if cur := srv.cur.Load(); cur != before || cur.res.Cleaned.Len() != snap.Len() {
			t.Fatalf("%s, %s: rejected feed changed the serving generation", tc.name, tc.mode)
		}
	}

	replaced := append([]*nvdclean.Entry{respelled}, snap.Entries[1:]...)
	if code, msg := post("replace", feed(replaced)); code != http.StatusOK {
		t.Fatalf("replace respelling %s as %s: POST /feed = %d, want 200: %v", held.ID, respelled.ID, code, msg)
	}
	if o := srv.cur.Load().res.Original; o.ByID(respelled.ID) == nil || o.ByID(held.ID) != nil {
		t.Errorf("replace did not respell %s as %s", held.ID, respelled.ID)
	}
}

// TestFeedNestingLimit posts feed bodies nested 10,001 levels deep, one
// past the limit encoding/json sets and the feed decoder keeps: once
// inside an unknown key, and once as configuration nodes nested
// through "children", down which the decoder recurses. Each must be
// answered 400, and the daemon must stay ready, serving the generation
// it had.
func TestFeedNestingLimit(t *testing.T) {
	srv, _ := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	before := srv.cur.Load()

	// The document, its item list, the item, "configurations", "nodes"
	// and the innermost node with its match list are seven levels; each
	// node above them adds two.
	const depth, nodes = 10001, (10001 - 7) / 2
	for _, tc := range []struct{ name, body string }{
		{"unknown key", `{"CVE_Items":[],"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`},
		{"children", `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"CVE-2018-9999"}},"publishedDate":"2018-05-01T00:00Z",` +
			`"configurations":{"nodes":[` + strings.Repeat(`{"children":[`, nodes) + `{"cpe_match":[]}` + strings.Repeat(`]}`, nodes) + `]}}]}`},
	} {
		resp, err := ts.Client().Post(ts.URL+"/feed?mode=upsert", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /feed = %d, want 400: %s", tc.name, resp.StatusCode, msg)
		}
		if srv.cur.Load() != before {
			t.Fatalf("%s: rejected feed changed the serving generation", tc.name)
		}
		var ready map[string]any
		if code := getJSON(t, ts, "/readyz", &ready); code != http.StatusOK {
			t.Fatalf("%s: /readyz = %d after the rejected feed: %v", tc.name, code, ready)
		}
	}
}

// TestQueryPaginationBeyondTotal pins the offset >= total edge: the
// window is empty, the metadata intact, and the status 200 — paging
// one past the last page is not an error.
func TestQueryPaginationBeyondTotal(t *testing.T) {
	srv, _ := demoServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var all struct {
		Total   int   `json:"total"`
		Results []any `json:"results"`
	}
	if code := getJSON(t, ts, "/query?limit=1", &all); code != http.StatusOK || all.Total == 0 {
		t.Fatalf("/query = %d total=%d", code, all.Total)
	}
	for _, offset := range []int{all.Total, all.Total + 1, all.Total + 100000} {
		var page struct {
			Total   int   `json:"total"`
			Offset  int   `json:"offset"`
			Results []any `json:"results"`
		}
		path := fmt.Sprintf("/query?limit=5&offset=%d", offset)
		if code := getJSON(t, ts, path, &page); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
		if len(page.Results) != 0 || page.Total != all.Total || page.Offset != offset {
			t.Errorf("%s: results=%d total=%d offset=%d", path, len(page.Results), page.Total, page.Offset)
		}
	}
}

// TestLoadCommitFailure pins the boot ordering fix: when the initial
// checkpoint commit fails, the cold boot must surface the error without
// installing the generation — a server that reports a failed boot must
// not quietly serve an uncheckpointed view.
func TestLoadCommitFailure(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	dir := filepath.Join(t.TempDir(), "data")
	srv := newServer(opts)
	openTestStore(t, srv, dir, fsio.OS{})
	// Sabotage the store directory so the checkpoint write must fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.advance(context.Background(), transition{snap: snap}); err == nil {
		t.Fatal("load succeeded with an uncommittable store")
	}
	if srv.cur.Load() != nil {
		t.Fatal("failed boot commit left the server serving a generation")
	}
}

func TestParseModels(t *testing.T) {
	if kinds, err := parseModels("LR,cnn"); err != nil ||
		len(kinds) != 2 || kinds[0] != predict.ModelLR || kinds[1] != predict.ModelCNN {
		t.Errorf("parseModels = %v, %v", kinds, err)
	}
	if kinds, err := parseModels("all"); err != nil || kinds != nil {
		t.Errorf("all = %v, %v", kinds, err)
	}
	if _, err := parseModels("LR,bogus"); err == nil {
		t.Error("bogus model should fail")
	}
}

// buildNvdserve compiles the daemon binary once per test.
func buildNvdserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nvdserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nvdserve: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running nvdserve process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	scanner *bufio.Scanner
	output  []string
}

// startDaemon launches the binary and waits for its listen line. The
// daemon is terminated (SIGINT, then kill via context) at test end.
func startDaemon(t *testing.T, ctx context.Context, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, scanner: bufio.NewScanner(stdout)}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })
	// The daemon prints its bound address once listening.
	for d.scanner.Scan() {
		line := d.scanner.Text()
		t.Log(line)
		d.output = append(d.output, line)
		if rest, ok := strings.CutPrefix(line, "nvdserve: listening on "); ok {
			d.base = rest
			break
		}
	}
	if d.base == "" {
		t.Fatalf("daemon never reported a listen address: %v", d.scanner.Err())
	}
	return d
}

func (d *daemon) get(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

// getRaw fetches a path without decoding, for non-JSON surfaces like
// /metrics.
func (d *daemon) getRaw(t *testing.T, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// signal delivers SIGINT without waiting, so a test can observe the
// drain window before the process exits.
func (d *daemon) signal(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
}

// shutdown delivers SIGINT and asserts the daemon drains and exits
// cleanly, printing its shutdown line.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.signal(t)
	d.awaitExit(t)
}

// awaitExit drains the output pipe to EOF and asserts a clean exit.
// The pipe is drained before Wait — Wait closes the pipe, so calling
// it while the scanner still reads would race away buffered output.
func (d *daemon) awaitExit(t *testing.T) {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for d.scanner.Scan() {
			line := d.scanner.Text()
			t.Log(line)
			d.output = append(d.output, line)
		}
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGINT")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGINT: %v", err)
	}
	if !d.sawLine("nvdserve: shutting down") {
		t.Error("daemon never logged its graceful shutdown")
	}
}

func (d *daemon) sawLine(prefix string) bool {
	for _, line := range d.output {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// TestNvdserveSmoke is the CI smoke test: build the real binary, start
// the daemon on an ephemeral port, query it over actual HTTP, and shut
// it down gracefully with SIGINT.
func TestNvdserveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke test skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// A generous -drain-wait so the test can observe the drain window
	// between SIGINT and listener close.
	d := startDaemon(t, ctx, buildNvdserve(t), "-demo", "tiny", "-drain-wait", "3s")

	var health map[string]any
	if code := d.get(t, "/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("/healthz = %d %v", code, health)
	}
	// Discover a real CVE ID through /query, then fetch it.
	var q struct {
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
	}
	if code := d.get(t, "/query?limit=1", &q); code != http.StatusOK || len(q.Results) == 0 {
		t.Fatalf("/query = %d %+v", code, q)
	}
	var view map[string]any
	if code := d.get(t, fmt.Sprintf("/cve/%s", q.Results[0].ID), &view); code != http.StatusOK {
		t.Fatalf("/cve/%s = %d", q.Results[0].ID, code)
	}
	if view["id"] != q.Results[0].ID {
		t.Fatalf("served %v, want %s", view["id"], q.Results[0].ID)
	}

	// Probe split: liveness and readiness both green on a loaded daemon.
	var probe map[string]any
	if code := d.get(t, "/livez", &probe); code != http.StatusOK || probe["status"] != "ok" {
		t.Fatalf("/livez = %d %v", code, probe)
	}
	if code := d.get(t, "/readyz", &probe); code != http.StatusOK || probe["status"] != "ok" {
		t.Fatalf("/readyz = %d %v", code, probe)
	}

	// The Prometheus surface over real HTTP: exposition content type
	// and a key family from each layer present by name — even without
	// -data-dir the store families render (as zeros) so dashboards keep
	// one stable scrape shape.
	code, hdr, metrics := d.getRaw(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", hdr.Get("Content-Type"))
	}
	for _, fam := range []string{
		"nvdserve_http_requests_total",
		"nvdserve_store_commit_queue_depth",
		"nvdserve_generation_age_seconds",
	} {
		if !strings.Contains(metrics, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}

	// Graceful shutdown with a drain window: after SIGINT readiness
	// flips 503 + Retry-After while the listener stays up (so load
	// balancers stop routing before connections die), then exit 0.
	d.signal(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err != nil {
			t.Fatalf("daemon dropped connections before the drain window closed: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retry == "" {
				t.Error("draining /readyz carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped to 503 after SIGINT")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Ordinary routes still answer inside the window: the drain exists
	// so traffic already routed here completes.
	if code := d.get(t, "/query?limit=1", &q); code != http.StatusOK {
		t.Errorf("/query during drain = %d, want 200", code)
	}
	d.awaitExit(t)
}

// TestNvdserveWarmRestartSmoke is the CI warm-restart step: run the
// daemon with -data-dir, ingest a delta, SIGINT it, start it again on
// the same directory, and assert the second boot restores the store
// generation — posted entry included — without a full re-clean.
func TestNvdserveWarmRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke test skipped in -short")
	}
	bin := buildNvdserve(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// First boot: cold clean + checkpoint commit.
	d1 := startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", dataDir)
	if !d1.sawLine("nvdserve: committed checkpoint generation 1") {
		t.Error("first boot did not commit a checkpoint")
	}
	// POST the canonical update (the daemon's tiny demo snapshot is
	// deterministic, so we can regenerate it here to build the body).
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := nvdclean.WriteFeed(&body, feedUpdate(t, snap)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d1.base+"/feed", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int(summary["added"].(float64)) != 1 {
		t.Fatalf("POST /feed = %d %v", resp.StatusCode, summary)
	}
	d1.shutdown(t)

	// Second boot, same directory: restore, don't re-clean.
	d2 := startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", dataDir)
	if !d2.sawLine("nvdserve: warm start: restored store generation 1") {
		t.Fatalf("second boot did not warm-start from the store: %v", d2.output)
	}
	if d2.sawLine("nvdserve: cleaning") {
		t.Fatal("second boot ran a full re-clean despite the store")
	}
	var view map[string]any
	if code := d2.get(t, "/cve/CVE-2018-9999", &view); code != http.StatusOK {
		t.Fatalf("restored daemon does not serve the logged delta: %d", code)
	}
	if view["backported"] != true {
		t.Errorf("restored entry lost its backported score: %v", view)
	}
	var stats map[string]any
	if code := d2.get(t, "/stats", &stats); code != http.StatusOK || stats["warmRestart"] != true {
		t.Fatalf("/stats = %d warmRestart=%v", code, stats["warmRestart"])
	}
	d2.shutdown(t)
}
