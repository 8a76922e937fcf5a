package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	bin     string  // nvdserve binary
	work    string  // scratch directory for feeds and data dirs
	seed    int64   // drives every generated input
	seconds float64 // measured time: open-loop phase plus closed-loop phase
	trace   bool    // also run the traced in-process replay
	spans   string  // where the replay's spans are written
	cves    int     // when > 0, overrides the workload's snapshot size (smoke test)
	log     io.Writer
}

// A run boots (and warm-restarts) the daemons repeatedly and reports
// the median: at least minReps times, and until the boots' CPU adds up
// to repCPU seconds or maxReps is reached. A 3K daemon boots in a
// quarter second of CPU, where one 10 ms clock tick or one scheduler
// hiccup is a large share, so it gets more samples than a 20K one.
const (
	minReps = 3
	maxReps = 9
	repCPU  = 1.5
)

// enoughReps reports whether cpus (one per boot) satisfy the above.
func enoughReps(cpus []float64) bool {
	var sum float64
	for _, c := range cpus {
		sum += c
	}
	return len(cpus) >= maxReps || (len(cpus) >= minReps && sum >= repCPU)
}

// closedShare is the part of a run's measured seconds spent in the
// closed-loop phase; the rest is the open-loop phase. The closed loop
// serves thousands of GETs a second, so a fifth of the run gives
// read_alloc_kb tens of thousands of samples, and the open loop keeps
// enough time for two compactions on the write workloads.
const closedShare = 0.2

// outcome is one workload run: every metric measured (name to value)
// and the correctness tally.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	// phases is the wall time each stage of the run took, for the log.
	phases []string
}

// lap records the wall time since the previous lap under name.
func (o *outcome) lap(name string, since *time.Time) {
	o.phases = append(o.phases, fmt.Sprintf("%s %.1fs", name, time.Since(*since).Seconds()))
	*since = time.Now()
}

// run is one workload run in progress.
type run struct {
	ctx      context.Context
	cfg      config
	w        workload
	in       *inputs
	feedPath string
	dirs     [2]string // primary and follower data directories
	// conns are the generator's only two connections. Connection 0
	// carries posts (or half the reads), connection 1 reads.
	conns [2]*http.Client
	prim  *daemon
	fol   *daemon
	// recs hold the open-loop samples per connection, closed the
	// closed-loop ones, and check every other verified operation.
	recs   [2]*recorder
	closed [2]*recorder
	check  *recorder
	acked  []post
	v      map[string]float64
}

// runWorkload measures one workload end to end: it generates the
// inputs, boots the daemons repeatedly, runs the open-loop phase
// then the closed-loop phase over the generator's two connections,
// checks what was served, kills and warm-restarts the primary, and,
// when tracing, replays the same operations in process.
func runWorkload(ctx context.Context, cfg config, w workload) (*outcome, error) {
	if cfg.cves > 0 {
		w.cves, w.vendors = cfg.cves, max(cfg.cves/6, 20)
	}
	work := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	began := time.Now()
	out := &outcome{values: map[string]float64{}}
	openDur := time.Duration(cfg.seconds * (1 - closedShare) * float64(time.Second))
	closedDur := time.Duration(cfg.seconds * closedShare * float64(time.Second))
	maxPosts := int(math.Ceil(w.postRate*openDur.Seconds())) + 1
	in, err := generate(w, cfg.seed, max(maxPosts, 2*compactEvery))
	if err != nil {
		return nil, err
	}
	r := &run{
		ctx: ctx, cfg: cfg, w: w, in: in,
		feedPath: filepath.Join(work, "feed.json"),
		dirs:     [2]string{filepath.Join(work, "primary"), filepath.Join(work, "follower")},
		conns:    [2]*http.Client{newConn(), newConn()},
		recs:     [2]*recorder{newRecorder(), newRecorder()},
		closed:   [2]*recorder{newRecorder(), newRecorder()},
		check:    newRecorder(),
		v:        out.values,
	}
	defer func() {
		r.fol.killIfRunning()
		r.prim.killIfRunning()
	}()
	if err := os.WriteFile(r.feedPath, in.feed, 0o644); err != nil {
		return nil, err
	}
	out.lap("generate", &began)

	if err := r.setup(); err != nil {
		return nil, err
	}
	out.lap("setup", &began)
	if err := r.openPhase(openDur); err != nil {
		return nil, err
	}
	if err := r.closedPhase(closedDur); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := timeLogFetches(ctx, tr, r.prim.base); err != nil {
			return nil, err
		}
	}
	out.lap("measure", &began)
	if err := r.crashAndRestart(); err != nil {
		return nil, err
	}
	out.lap("restart", &began)

	all := newRecorder()
	for _, rec := range append(append(r.recs[:], r.closed[:]...), r.check) {
		all.merge(rec)
	}
	out.attempted, out.failed, out.failures = all.attempted, all.failed, all.failures
	r.latencies(all)

	if tr != nil {
		posts := replayProbePosts
		if w.postRate > 0 {
			posts = 2 * compactEvery
		}
		stats, err := replay(ctx, tr, filepath.Join(work, "replay"), w, in, cfg.seed, posts)
		if err != nil {
			return nil, err
		}
		stats.metrics(r.v, w)
		r.v["nvdserve.wait_http_ms"] = r.v["op_p50_ms"] - r.v["trace.op_p50_ms"]
		if err := tr.write(cfg.spans, w, cfg.seed); err != nil {
			return nil, err
		}
		out.lap("replay", &began)
	}
	return out, nil
}

// daemons returns the running daemons, primary first.
func (r *run) daemons() []*daemon {
	if r.fol != nil {
		return []*daemon{r.prim, r.fol}
	}
	return []*daemon{r.prim}
}

// readBase is where the workload's readers go: the follower when there
// is one.
func (r *run) readBase() string {
	if r.fol != nil {
		return r.fol.base
	}
	return r.prim.base
}

// cpu sums the CPU seconds ds have used so far.
func cpu(ds ...*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// startPrimary execs the primary on its data directory (cold on a
// fresh one, a warm restart on a used one) and waits for /readyz.
func (r *run) startPrimary() (err error) {
	if r.prim, err = startDaemon(r.ctx, r.cfg.bin, r.dirs[0], "-feed", r.feedPath); err != nil {
		return err
	}
	return r.prim.waitReady(r.ctx, r.conns[0], 5*time.Minute)
}

// setup boots the daemons on fresh data directories until enoughReps,
// keeping the last boot. Set-up covers feed decode, the cold Clean and
// the boot commit, plus the follower's bootstrap from the primary.
// setup_s is the CPU the daemons spent from exec until every /readyz
// answered 200; setup_wall_s is the elapsed time.
func (r *run) setup() error {
	var cpus, walls []float64
	for i := 0; !enoughReps(cpus); i++ {
		if i > 0 {
			r.fol.killIfRunning()
			r.prim.killIfRunning()
			for _, c := range r.conns {
				dropConns(c)
			}
			for _, d := range r.dirs {
				if err := os.RemoveAll(d); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		if err := r.startPrimary(); err != nil {
			return err
		}
		if r.w.follower {
			var err error
			if r.fol, err = startDaemon(r.ctx, r.cfg.bin, r.dirs[1], "-feed", r.feedPath, "-follow", r.prim.base, "-follow-poll", "20ms"); err != nil {
				return err
			}
			if err := r.fol.waitReady(r.ctx, r.conns[1], 5*time.Minute); err != nil {
				return err
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
		c, err := cpu(r.daemons()...)
		if err != nil {
			return err
		}
		cpus = append(cpus, c)
	}
	r.v["setup_s"] = median(cpus)
	r.v["setup_wall_s"] = median(walls)
	return nil
}

// openPhase runs the open-loop traffic for d: reads on both connections,
// or posts on connection 0 beside reads (and, with a follower,
// visibility probes) on connection 1. It then waits until every
// acknowledged post is visible and every background commit is done, so
// the phase's CPU covers all the work its operations caused.
func (r *run) openPhase(d time.Duration) error {
	ctx, w, readBase := r.ctx, r.w, r.readBase()
	if !w.cold {
		// Let the hot working set fill the caches before timing: every
		// /query key and the hottest IDs are encoded once.
		warm := newMix(r.in, false, r.cfg.seed, 9)
		for _, k := range r.in.hotKeys {
			r.check.get(ctx, r.conns[1], readBase, "/query?"+k, false)
		}
		for i := 0; i < 512; i++ {
			if path, _ := warm.next(); path[1] == 'c' {
				r.check.get(ctx, r.conns[1], readBase, path, false)
			}
		}
	}
	m0, err := collectEach(ctx, r.conns[0], r.daemons())
	if err != nil {
		return err
	}
	readS0, err := fetchScrape(ctx, r.conns[1], readBase)
	if err != nil {
		return err
	}
	primS0, err := fetchScrape(ctx, r.conns[0], r.prim.base)
	if err != nil {
		return err
	}
	wb0 := sumWriteBytes(r.daemons())
	cpu0, err := cpu(r.daemons()...)
	if err != nil {
		return err
	}

	var pr *prober
	if r.fol != nil {
		pr = newProber()
	}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	readLoop := func(c int, period, offset time.Duration, idle func() bool) {
		defer wg.Done()
		m := newMix(r.in, w.cold, r.cfg.seed, c)
		openLoop(start, period, offset, d, r.recs[c], idle, func(_ int, due time.Time) {
			path, conditional := m.next()
			if r.recs[c].get(ctx, r.conns[c], readBase, path, conditional) {
				r.recs[c].reads = append(r.recs[c].reads, ms(time.Since(due)))
			}
		})
	}
	if w.postRate > 0 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			openLoop(start, time.Duration(float64(time.Second)/w.postRate), 0, d, r.recs[0], nil, func(i int, due time.Time) {
				p := r.in.posts[i]
				if r.recs[0].sendPost(ctx, r.conns[0], r.prim.base, p, due) {
					r.acked = append(r.acked, p)
					if pr != nil {
						pr.add(p, time.Now())
					}
				}
			})
		}()
		var idle func() bool
		if pr != nil {
			idle = func() bool { return pr.poll(ctx, r.conns[1], readBase, r.recs[1]) }
		}
		go readLoop(1, time.Duration(float64(time.Second)/w.readRate), 0, idle)
	} else {
		period := time.Duration(2 * float64(time.Second) / w.readRate)
		wg.Add(2)
		go readLoop(0, period, 0, nil)
		go readLoop(1, period, period/2, nil)
	}
	wg.Wait()
	if pr != nil {
		// Drain: every acknowledged post must become visible on the
		// follower; its latency still counts from the acknowledgement.
		deadline := time.Now().Add(60 * time.Second)
		for pr.outstanding() > 0 && time.Now().Before(deadline) {
			if !pr.poll(ctx, r.conns[1], readBase, r.recs[1]) {
				time.Sleep(time.Millisecond)
			}
		}
		if n := pr.outstanding(); n > 0 {
			r.check.attempted++
			r.check.fail("%d acknowledged posts never became visible on the follower", n)
		}
	}
	readS1, err := fetchScrape(ctx, r.conns[1], readBase)
	if err != nil {
		return err
	}
	primS1, err := fetchScrape(ctx, r.conns[0], r.prim.base)
	if err != nil {
		return err
	}
	for _, dm := range r.daemons() {
		if err := waitCommitsIdle(ctx, r.conns[0], dm); err != nil {
			return err
		}
	}
	cpu1, err := cpu(r.daemons()...)
	if err != nil {
		return err
	}
	m1, err := collectEach(ctx, r.conns[0], r.daemons())
	if err != nil {
		return err
	}
	ops := len(r.recs[0].reads) + len(r.recs[1].reads)
	if w.postRate > 0 {
		ops = len(r.acked)
	}
	r.v["op_cpu_ms"] = ratio(cpu1-cpu0, float64(ops)) * 1e3
	// The defining operation's allocation is the primary's: it serves
	// every GET of the read workloads and every post. Heap objects, not
	// bytes, are the end-to-end number: a few large buffers that
	// sync.Pool keeps or drops by chance move the bytes, not the count.
	prim0, prim1 := m0[0], m1[0]
	r.v["op_allocs"] = ratio(prim1.mallocs-prim0.mallocs, float64(ops))
	r.v["op_alloc_kb"] = ratio(prim1.totalAlloc-prim0.totalAlloc, float64(ops)) / 1024
	// The follower's share (0 without one): its folds, plus a
	// re-bootstrap whenever a compaction retired its cursor segment first.
	r.v["replica.follower_allocs"] = 0
	if r.fol != nil {
		r.v["replica.follower_allocs"] = ratio(m1[1].mallocs-m0[1].mallocs, float64(ops))
	}
	var gcs, heap float64
	for i := range m1 {
		gcs += m1[i].numGC - m0[i].numGC - forcedGCs
		heap += m1[i].heapAlloc
	}
	// The phase's own collections, less the ones collect forced.
	r.v["nvdserve.gc_cycles"] = gcs
	// Live heap after the phase: the serving state the workload built,
	// after a fixed sequence of operations (the closed-loop phase that
	// follows runs a speed-dependent number).
	r.v["heap_live_mb"] = heap / (1 << 20)

	v := r.v
	getCount := func(s scrape) float64 {
		return s.sum("nvdserve_http_requests_total", `route="/cve/{id}"`) + s.sum("nvdserve_http_requests_total", `route="/query"`)
	}
	durSum := func(s scrape) float64 {
		return s.sum("nvdserve_http_request_duration_seconds_sum", `route="/cve/{id}"`) + s.sum("nvdserve_http_request_duration_seconds_sum", `route="/query"`)
	}
	gets := getCount(readS1) - getCount(readS0)
	v["nvdserve.read_server_mean_us"] = ratio(durSum(readS1)-durSum(readS0), gets) * 1e6
	v["nvdserve.not_modified_ratio"] = ratio(delta(readS0, readS1, "nvdserve_respcache_not_modified_total"), gets)
	v["nvdserve.ingest_swap_mean_ms"] = ratio(delta(primS0, primS1, "nvdserve_ingest_swap_seconds_sum"), delta(primS0, primS1, "nvdserve_ingest_swap_seconds_count")) * 1e3
	v["store.commits"] = delta(primS0, primS1, "nvdserve_store_commits_total")
	v["store.commit_retries"] = delta(primS0, primS1, "nvdserve_store_commit_retries_total")
	v["store.checkpoint_mean_ms"] = ratio(delta(primS0, primS1, "nvdserve_store_checkpoint_seconds_sum"), delta(primS0, primS1, "nvdserve_store_checkpoint_seconds_count")) * 1e3
	var posted int64
	for _, p := range r.acked {
		posted += int64(len(p.body))
	}
	v["store.write_amp"] = ratio(float64(sumWriteBytes(r.daemons())-wb0), float64(posted))
	hits, misses := delta(readS0, readS1, "nvdserve_respcache_entry_hits_total"), delta(readS0, readS1, "nvdserve_respcache_entry_misses_total")
	v["respcache.entry_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = delta(readS0, readS1, "nvdserve_respcache_query_hits_total"), delta(readS0, readS1, "nvdserve_respcache_query_misses_total")
	v["respcache.query_hit_ratio"] = ratio(hits, hits+misses)
	v["respcache.query_evictions"] = delta(readS0, readS1, "nvdserve_respcache_query_evictions_total")
	v["replica.bootstraps"] = readS1.sum("nvdserve_replica_bootstraps_total")
	v["replica.fetch_errors"] = readS1.sum("nvdserve_replica_fetch_errors_total")
	return nil
}

// closedAllocGETs is how many GETs each connection sends back to back
// before the read_alloc_kb window closes. A fixed count, not a fixed
// time: on the cold mix the entry cache warms as GETs arrive, so bytes
// per GET over a timed window fell whenever the host (or the read path)
// got faster. About a second at the 10K GET/s a 2-vCPU host serves.
const closedAllocGETs = 6000

// closedPhase measures read cost and capacity: both connections send
// GETs back to back to the daemon the workload's readers use.
// read_alloc_kb and read_cpu_us are that daemon's allocation and CPU
// per GET over each connection's first closedAllocGETs; read_sat_rps is
// GETs per second over the whole phase. It then checks the follower
// against the primary, and reads the daemons' memory high-water mark.
func (r *run) closedPhase(d time.Duration) error {
	readBase := r.readBase()
	reader := r.daemons()[len(r.daemons())-1]
	m0, err := reader.collect(r.ctx, r.conns[0])
	if err != nil {
		return err
	}
	cpu0, err := cpu(reader)
	if err != nil {
		return err
	}
	mixes := [2]*mix{newMix(r.in, r.w.cold, r.cfg.seed, 2), newMix(r.in, r.w.cold, r.cfg.seed, 3)}
	secs := r.closedLoops(readBase, mixes, closedAllocGETs, d)
	cpu1, err := cpu(reader)
	if err != nil {
		return err
	}
	m1, err := reader.collect(r.ctx, r.conns[0])
	if err != nil {
		return err
	}
	counted := float64(r.closed[0].closed + r.closed[1].closed)
	r.v["read_alloc_kb"] = ratio(m1.totalAlloc-m0.totalAlloc, counted) / 1024
	r.v["read_cpu_us"] = ratio(cpu1-cpu0, counted) * 1e6
	// The rest of the phase, for capacity only; the collection between
	// the two parts is not timed.
	secs += r.closedLoops(readBase, mixes, math.MaxInt, d-time.Duration(secs*float64(time.Second)))
	r.v["read_sat_rps"] = float64(r.closed[0].closed+r.closed[1].closed) / secs

	if r.fol != nil {
		checkReplica(r.ctx, r.conns, r.prim.base, r.fol.base, r.in, r.acked, r.cfg.seed, r.check)
	}
	var rss float64
	for _, dm := range r.daemons() {
		mb, err := dm.peakRSSMB()
		if err != nil {
			return err
		}
		rss += mb
	}
	r.v["rss_peak_mb"] = rss
	return nil
}

// crashAndRestart SIGKILLs the primary (after stopping any follower),
// checks what its data directory recovers to, then warm-restarts it
// until enoughReps: restart_s is the CPU from exec until /readyz
// answers 200, restart_wall_s the elapsed time. Finally every
// acknowledged update must be served by the restarted daemon.
func (r *run) crashAndRestart() error {
	if r.fol != nil {
		r.fol.stop()
		r.fol = nil
	}
	r.prim.kill()
	for _, c := range r.conns {
		dropConns(c)
	}
	if r.w.postRate > 0 && !r.w.follower {
		r.check.attempted++
		if err := checkRecovery(r.ctx, r.dirs[0], expectedFeed(r.in.snap, r.acked)); err != nil {
			r.check.fail("warm-restart oracle: %v", err)
		}
	}
	var cpus, walls []float64
	for i := 0; !enoughReps(cpus); i++ {
		if i > 0 {
			r.prim.kill()
			dropConns(r.conns[0])
		}
		t0 := time.Now()
		if err := r.startPrimary(); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		c, err := cpu(r.prim)
		if err != nil {
			return err
		}
		cpus = append(cpus, c)
	}
	r.v["restart_s"] = median(cpus)
	r.v["restart_wall_s"] = median(walls)

	// Each updated ID serves the marker of the last post that touched it.
	final := map[string]string{}
	for _, p := range r.acked {
		for _, e := range p.entries {
			final[e.ID] = p.marker
		}
	}
	for _, id := range sortedKeys(final) {
		r.check.readsBack(r.ctx, r.conns[0], r.prim.base, id, final[id])
	}
	r.prim.stop()
	r.prim = nil
	dropConns(r.conns[0])
	return nil
}

// closedLoops runs both connections' closed loops at once, each for at
// most limit GETs and at most d, and returns the seconds they took.
func (r *run) closedLoops(base string, mixes [2]*mix, limit int, d time.Duration) float64 {
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	for c := range r.closed {
		go func(c int) {
			defer wg.Done()
			closedLoop(r.ctx, r.conns[c], base, mixes[c], r.closed[c], limit, until)
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// latencies derives the wall-clock numbers from the merged samples.
func (r *run) latencies(all *recorder) {
	v := r.v
	v["read_p50_ms"] = percentile(all.reads, 50)
	v["read_p99_ms"] = percentile(all.reads, 99)
	op := all.reads
	if r.w.postRate > 0 {
		op = all.acks
		v["ingest_ack_p50_ms"] = percentile(all.acks, 50)
		v["ingest_ack_p90_ms"] = percentile(all.acks, 90)
	}
	if r.w.follower {
		op = all.visible
		v["replica_visible_p50_ms"] = percentile(all.visible, 50)
		v["replica_visible_p90_ms"] = percentile(all.visible, 90)
	}
	v["op_p50_ms"] = percentile(op, 50)
	v["op_p90_ms"] = percentile(op, 90)
	v["nvdserve.read_wait_ms"] = v["read_p50_ms"] - v["nvdserve.read_server_mean_us"]/1e3
	v["loadgen.late_p50_ms"] = percentile(all.late, 50)
	v["loadgen.late_p99_ms"] = percentile(all.late, 99)
	v["loadgen.backlog_max"] = float64(all.backlogMax)
	v["fail_ratio"] = ratio(float64(all.failed), float64(all.attempted))
	v["loadgen.reads"] = float64(len(all.reads))
	v["loadgen.posts"] = float64(len(r.acked))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (d *daemon) killIfRunning() {
	if d != nil {
		d.kill()
	}
}

func sumWriteBytes(ds []*daemon) int64 {
	var n int64
	for _, d := range ds {
		if b, err := d.writeBytes(); err == nil {
			n += b
		}
	}
	return n
}

// waitCommitsIdle waits until d's background committer has no
// checkpoint queued or in flight.
func waitCommitsIdle(ctx context.Context, c *http.Client, d *daemon) error {
	defer dropConns(c)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s, err := fetchScrape(ctx, c, d.base)
		if err != nil {
			return err
		}
		if s.sum("nvdserve_store_commit_queue_depth") == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background commits still pending after 2m")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
