package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvdclean"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
	"nvdclean/internal/replica"
	"nvdclean/internal/respcache"
	"nvdclean/internal/store"
)

// serveState is one immutable generation of the served snapshot. The
// server swaps whole generations atomically, so readers never observe
// a half-cleaned view and POST /feed re-cleans cause zero downtime.
// Each generation carries its own sharded query indexes; swapping the
// state pointer swaps snapshot and indexes together.
type serveState struct {
	res      *nvdclean.Result
	idx      *store.Index
	loadedAt time.Time
	cleanDur time.Duration
	// generation counts snapshot swaps since boot; incremental marks a
	// generation produced by CleanDelta rather than a full Clean.
	generation  int
	incremental bool
	warmStart   bool
	// restored marks the boot generation of a warm restart from the
	// persistent store (no full re-clean).
	restored bool
	// etag is the strong validator every read response of this
	// generation carries (see etagFor); entries and queries are the
	// generation's pre-encoded response caches, coherent by
	// construction because the generation they belong to is immutable.
	etag    string
	entries *respcache.EntryCache
	queries *respcache.QueryCache
}

// server is the nvdserve daemon: it owns the current snapshot
// generation and the cleaning options reloads run with.
type server struct {
	opts nvdclean.Options
	cur  atomic.Pointer[serveState]
	// feedMu serializes generation transitions; reads are lock-free.
	feedMu sync.Mutex
	// persist is the generation store (nil runs in-memory only) and
	// committer its background checkpoint writer; attachStore sets both.
	// compactEvery seals the active delta-log segment after that many
	// records and folds the sealed generation into a fresh checkpoint.
	persist      *store.Store
	committer    *store.Committer
	compactEvery int
	// bootEpoch makes ETags unique across restarts: the in-memory
	// generation counter restarts at 1 while the served content does
	// not, so a validator must carry something boot-unique or a client
	// could get a false 304 from a post-restart generation that reused
	// a pre-restart counter value.
	bootEpoch uint64
	// queryCacheBytes caps each generation's /query response cache
	// (-query-cache-bytes; <= 0 disables it). The /cve cache needs no
	// cap: it is bounded by the generation's entry count.
	queryCacheBytes int
	// maxFeedBytes bounds a POST /feed body (-max-feed-bytes; <= 0
	// unbounded); metrics accumulates read-cache counters across
	// generations for /stats.
	maxFeedBytes int64
	metrics      *respcache.Metrics
	// obs is the Prometheus surface (/metrics plus the request
	// middleware); like metrics it lives outside serveState so no
	// generation swap can reset a time series.
	obs *serverMetrics
	// follower is non-nil when the daemon runs as a read replica
	// (-follow): it owns the replication cursor and the tail loop, and
	// its presence flips POST /feed to 403 and gates /readyz on lag.
	follower *follower
	// draining flips when shutdown begins: /readyz turns 503 (with
	// Retry-After) while in-flight and newly-arriving requests still
	// serve, giving a fronting load balancer a drain signal before the
	// listener closes.
	draining atomic.Bool
	// health tracks persistent-store write failures and runs the
	// degraded-mode recovery probe; reads never consult it.
	health *storeHealth
}

// Default resource bounds, overridable by flags.
const (
	defaultQueryCacheBytes = 4 << 20
	defaultMaxFeedBytes    = 64 << 20
)

func newServer(opts nvdclean.Options) *server {
	s := &server{
		opts:            opts,
		bootEpoch:       uint64(time.Now().UnixNano()),
		queryCacheBytes: defaultQueryCacheBytes,
		maxFeedBytes:    defaultMaxFeedBytes,
		metrics:         &respcache.Metrics{},
	}
	// The registry's gauge closures read s.persist/s.committer/s.cur
	// dynamically, so building it before those are assigned is fine.
	// health must exist first: the degraded gauge closure samples it.
	s.health = newStoreHealth(s)
	s.obs = newServerMetrics(s)
	return s
}

// attachStore makes st the server's generation store — the one attach
// step run and the tests share: a store-backed server always commits
// through a background committer, and every commit outcome feeds
// /metrics and the degraded-mode tracker.
func (s *server) attachStore(st *store.Store) {
	s.persist = st
	st.SetCommitObserver(s.observeCommit)
	s.committer = store.NewCommitter(st)
}

// closeStore drains the committer (an in-flight commit completes, a
// queued one is dropped — its deltas are safe in live segments), stops
// the recovery probe, and closes the store.
func (s *server) closeStore() error {
	s.committer.Close()
	s.health.close()
	return s.persist.Close()
}

// transition is one generation change. Cold boot, warm boot, POST
// /feed, follower bootstrap and follower fold all run it through
// advance; they differ only in what they set here.
type transition struct {
	// The Result comes from Clean(snap), RestoreResult(cp) or (neither
	// set) the serving generation, then CleanDelta(delta) when non-empty.
	// Given a store, a cold boot (snap) commits its checkpoint inline.
	snap  *nvdclean.Snapshot
	cp    *store.Checkpoint
	delta *nvdclean.Delta
	// Given a store, appendDelta logs delta before it serves (POST
	// /feed); shipped frames, a shipped checkpoint and a replayed log
	// are durable already.
	appendDelta bool
	// Compaction triggers when appendDelta fills the active segment to
	// compactEvery records, or on a follower when sealed mirrors its
	// primary's seal of the segment just applied.
	sealed bool
}

// outcome reports the serving generation after a transition and, when
// it compacted, the sealed segment — or the seal's failure, which
// leaves the new generation serving regardless.
type outcome struct {
	st         *serveState
	sealedSeq  uint64
	compactErr error
}

// notDurable is a transition's failure to make its change durable: the
// disk failed, not the daemon, so POST /feed answers 503/507, not 500.
type notDurable struct{ error }

// advance runs one transition; the caller holds s.feedMu, and a
// transition with neither snap nor cp needs a serving generation. The
// step order is load-bearing: clean; make durable (a crash after the
// append replays the delta, one before it loses only an unacknowledged
// update); build the serving state; commit inline on a cold boot (a
// failed boot commit must not leave an unrecorded generation serving);
// compact; derive the validator from the settled store position; swap;
// observe.
func (s *server) advance(ctx context.Context, t transition) (outcome, error) {
	start := time.Now()
	prev := s.cur.Load()
	base, res := prev, (*nvdclean.Result)(nil)
	var restored *store.Index
	var err error
	switch {
	case t.snap != nil:
		base = nil
		res, err = nvdclean.Clean(ctx, t.snap, s.opts)
	case t.cp != nil:
		base, restored = nil, t.cp.Index
		res, err = nvdclean.RestoreResult(t.cp, s.opts)
	default:
		res = prev.res
	}
	if err != nil {
		return outcome{}, err
	}
	warm := t.cp != nil
	if t.delta != nil && !t.delta.Empty() {
		if base == nil {
			// The restored checkpoint's own view anchors the delta, so
			// the replay re-ordinates only the lazy index shards it touches.
			base, restored = s.newState(res, nil, nil, restored), nil
		}
		if res, err = nvdclean.CleanDelta(ctx, base.res, t.delta, s.opts); err != nil {
			return outcome{}, err
		}
		warm = warm || (res.Engine != nil && res.Engine == base.res.Engine)
	}
	if prev != nil && res == prev.res {
		// Nothing to clean (a follower's deltas cancel out, or a bare
		// mirrored seal): the serving generation stays and only
		// compacts.
		seq, err := s.compact(t, prev)
		return outcome{st: prev, sealedSeq: seq, compactErr: err}, nil
	}
	dur := time.Since(start)
	if t.appendDelta && s.persist != nil {
		if err := s.persist.AppendDelta(t.delta); err != nil {
			// Degraded mode: read-only serving plus a recovery probe.
			s.health.recordFailure(err)
			return outcome{}, notDurable{err}
		}
	}
	next := s.newState(res, base, t.delta, restored)
	next.cleanDur, next.incremental, next.warmStart, next.restored = dur, t.delta != nil, warm, t.cp != nil
	next.generation = 1
	if prev != nil {
		next.generation = prev.generation + 1
	}
	if t.snap != nil && s.persist != nil {
		cp := res.StoreCheckpoint()
		cp.Index = next.idx
		if err := s.persist.Commit(cp); err != nil {
			return outcome{}, fmt.Errorf("committing checkpoint: %w", err)
		}
	}
	out := outcome{st: next}
	out.sealedSeq, out.compactErr = s.compact(t, next)
	next.etag = s.readValidator(next.generation)
	s.cur.Store(next)
	if t.snap == nil && t.cp == nil {
		s.obs.ingestDeltaEntries.Observe(float64(t.delta.Size()))
		s.obs.ingestSwapSeconds.Observe(time.Since(start).Seconds())
	}
	return out, nil
}

// compact folds the delta log down when the transition calls for it:
// it builds st's checkpoint document, seals the active segment (O(1))
// and hands both to the background committer. A failed seal degrades
// the daemon.
func (s *server) compact(t transition, st *serveState) (uint64, error) {
	if s.persist == nil || (!t.sealed && (!t.appendDelta || s.compactEvery <= 0 || s.persist.ActiveRecords() < s.compactEvery)) {
		return 0, nil
	}
	cp := st.res.StoreCheckpoint()
	cp.Index = st.idx
	seq, err := s.persist.Seal()
	if err != nil {
		s.health.recordFailure(err)
		return 0, err
	}
	s.committer.Enqueue(cp, seq)
	return seq, nil
}

// mergeDeltas folds a warm boot's logged or a follower's unapplied
// deltas over base into the one delta a single CleanDelta applies (nil
// when there are none). POST /feed's single delta needs no merge.
func mergeDeltas(base *nvdclean.Snapshot, deltas []*nvdclean.Delta) *nvdclean.Delta {
	if len(deltas) == 0 {
		return nil
	}
	merged := base
	for _, d := range deltas {
		merged = merged.ApplyDelta(d)
	}
	return nvdclean.Diff(base, merged)
}

// newState builds the serving state for res: the query indexes are
// restored from a checkpoint, built in full, or, given the previous
// generation, advanced incrementally from the cleaned-view delta — the
// Diff of the two cleaned snapshots, which also captures consolidation
// flips on entries the feed delta never named. Untouched index shards
// are shared between generations, and so are the previous generation's
// pre-encoded /cve responses: an entry neither delta names serves the
// exact bytes it served last generation, copied forward by reference.
// The invalidation set is the union of both deltas because the /cve
// view is wider than the cleaned entry — a feed update can flip a
// Result-level annotation (say, a consolidation mark) while leaving
// the cleaned entry bytes equal, so the feed delta's IDs are stale
// even when the cleaned diff never names them.
func (s *server) newState(res *nvdclean.Result, prev *serveState, feedDelta *nvdclean.Delta, restored *store.Index) *serveState {
	st := &serveState{
		res: res, loadedAt: time.Now(),
		entries: respcache.NewEntryCache(s.metrics),
		queries: respcache.NewQueryCache(s.queryCacheBytes, s.metrics),
	}
	switch {
	case restored != nil:
		// A checkpoint-restored index: shards stay raw segment bytes
		// until queries touch them, so the warm boot never pays a
		// BuildIndex over the feed.
		st.idx = restored
	case prev != nil && prev.idx != nil:
		cleanedDelta := nvdclean.Diff(prev.res.Cleaned, res.Cleaned)
		idx, err := prev.idx.Update(cleanedDelta, prev.res.Cleaned.ByID, res.Cleaned, s.opts.Concurrency)
		if err != nil {
			// A corrupt lazily-loaded shard surfaces on the first
			// update that touches it; a full rebuild restores a clean
			// in-memory index.
			idx = store.BuildIndex(res.Cleaned, s.opts.Concurrency)
		}
		st.idx = idx
		// An ID the new generation lacks is in the cleaned delta's
		// Removed, so stale covers it.
		stale := staleIDs(cleanedDelta, feedDelta)
		st.entries.Seed(prev.entries, func(id string) bool { return !stale[id] })
	default:
		st.idx = store.BuildIndex(res.Cleaned, s.opts.Concurrency)
	}
	return st
}

// readValidator derives the strong validator a generation's read
// responses carry. Store-backed daemons use the replication stream
// position of the last applied record — "w<segment seq>-<byte
// offset>" — which is identical on every replica serving the same
// content (followers append the primary's frame bytes verbatim, so
// positions align across the fleet and a CDN or client cache keeps
// hitting across a failover). Positions only advance, so no two
// distinct generations of one store ever alias; two replicas at
// different positions can alias the same content across an empty-seal
// boundary, which costs a cache miss, never a false 304. Store-less
// daemons have no stream position and keep the bootEpoch-qualified
// in-memory counter (the counter alone would repeat across restarts).
func (s *server) readValidator(gen int) string {
	if s.persist != nil && s.persist.Generation() > 0 {
		seq, off := s.persist.LastPosition()
		return fmt.Sprintf(`"w%d-%d"`, seq, off)
	}
	return fmt.Sprintf(`"%x-%d"`, s.bootEpoch, gen)
}

// staleIDs collects every CVE ID either delta names — the entries
// whose cached response bytes must not carry over a generation swap.
func staleIDs(deltas ...*nvdclean.Delta) map[string]bool {
	stale := make(map[string]bool)
	for _, d := range deltas {
		if d == nil {
			continue
		}
		for _, id := range d.ChangedIDs() {
			stale[id] = true
		}
		for _, id := range d.Removed {
			stale[id] = true
		}
	}
	return stale
}

// handler builds the HTTP mux. Every route passes through the metrics
// middleware under its pattern label (never the raw URL — /cve/{id} is
// one time series however many IDs exist); the catch-all keeps 404s
// visible in the same families instead of bypassing instrumentation.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	i := s.obs.instrument
	mux.HandleFunc("GET /livez", i("/livez", "GET", s.handleLivez))
	mux.HandleFunc("GET /readyz", i("/readyz", "GET", s.handleReadyz))
	// /healthz predates the liveness/readiness split and aliases
	// /readyz: every pre-split health checker was really asking "can
	// this process serve?", which is readiness.
	mux.HandleFunc("GET /healthz", i("/healthz", "GET", s.handleReadyz))
	mux.HandleFunc("GET /metrics", i("/metrics", "GET", s.handleMetrics))
	mux.HandleFunc("GET /cve/{id}", i("/cve/{id}", "GET", s.handleCVE))
	mux.HandleFunc("GET /query", i("/query", "GET", s.handleQuery))
	mux.HandleFunc("GET /stats", i("/stats", "GET", s.handleStats))
	mux.HandleFunc("GET "+replica.ManifestPath, i(replica.ManifestPath, "GET", s.handleReplicateManifest))
	mux.HandleFunc("GET "+replica.CheckpointPathPrefix+"{file}", i(replica.CheckpointPathPrefix+"{file}", "GET", s.handleReplicateCheckpoint))
	mux.HandleFunc("GET "+replica.LogPath, i(replica.LogPath, "GET", s.handleReplicateLog))
	mux.HandleFunc("POST /feed", i("/feed", "POST", s.handleFeed))
	mux.HandleFunc("/", i("other", "any", s.handleFallback))
	return mux
}

// handleFallback answers requests no route matched — instrumented
// under the "other" route label so scans and typos show up in the
// request families rather than vanishing.
func (s *server) handleFallback(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
}

// writeJSON renders non-cacheable responses — errors, feed summaries,
// stats — compactly. Read endpoints honor ?pretty=1; everything else
// is machine-consumed and no longer pays the ~30% indentation tax.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(encodeJSON(v, false))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) state(w http.ResponseWriter) *serveState {
	st := s.cur.Load()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded yet")
		return nil
	}
	return st
}

// ready reports whether the daemon should receive traffic; the reason
// names what blocks it ("loading" until the first generation installs,
// "draining" once shutdown begins, and on followers "replication
// lag"/"replication unsynced" when the replica has fallen more than
// -max-replica-lag behind its primary — a lagging replica should be
// rotated out of a fleet's read pool rather than serve stale answers).
func (s *server) ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.cur.Load() == nil {
		return false, "loading"
	}
	if f := s.follower; f != nil && f.maxLag > 0 {
		lag, ok := f.lag()
		if !ok {
			return false, "replication unsynced"
		}
		if lag > f.maxLag {
			return false, fmt.Sprintf("replication lag %s", lag.Round(time.Millisecond))
		}
	}
	return true, ""
}

// handleLivez is the liveness probe: 200 whenever the process can
// answer at all — even before the first generation installs and while
// draining. Restarting a pod for being not-yet-ready or mid-drain is
// exactly the failure mode the liveness/readiness split exists to
// avoid; only a hung process should fail this probe.
func (s *server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe (also serving the legacy
// /healthz path): 503 until the boot restore or first clean installs a
// generation, and 503 again — with Retry-After — once shutdown drain
// begins, so a fronting load balancer stops routing before the
// listener closes. The ready body keeps the historical healthz shape
// (status/entries/generation) with its generation validator.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.ready(); !ok {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
		return
	}
	// Degraded (read-only) is still ready — reads serve normally, so
	// the daemon must stay in a load balancer's read pool — but the
	// probe body says so, plainly and unconditionally: degraded status
	// must never hide behind a cached 304, so this branch skips the
	// ETag machinery entirely.
	if degraded, reason, _ := s.health.isDegraded(); degraded {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": reason,
		})
		return
	}
	st := s.cur.Load()
	pretty, err := parsePretty(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := st.etagFor(pretty)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		s.serveNotModified(w, etag, nil)
		return
	}
	serveRead(w, etag, encodeJSON(map[string]any{
		"status":     "ok",
		"entries":    st.res.Cleaned.Len(),
		"generation": st.generation,
	}, pretty))
}

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

// handleCVE serves one pre-encoded entry: a conditional request whose
// validator still matches costs a 304 and never touches the body; a
// fresh request is one cache lookup (encode-once per generation, with
// untouched entries' bytes carried over incremental swaps).
func (s *server) handleCVE(w http.ResponseWriter, r *http.Request) {
	st := s.state(w)
	if st == nil {
		return
	}
	id := r.PathValue("id")
	e := st.res.Cleaned.ByID(id)
	if e == nil {
		writeError(w, http.StatusNotFound, "no entry %s", id)
		return
	}
	pretty, err := parsePretty(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := st.etagFor(pretty)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		// Only the compact representation is cached, so only there is
		// the unsent body length known without an encode.
		var cached []byte
		if !pretty {
			cached = st.entries.Peek(id)
		}
		s.serveNotModified(w, etag, cached)
		return
	}
	serveRead(w, etag, st.cveBody(e, pretty))
}

// queryParams is one parsed /query request.
type queryParams struct {
	vendor, product string
	cweID           cwe.ID
	hasCWE          bool
	sev             cvss.Severity
	hasSev          bool
	year            int
	limit, offset   int
	pretty          bool
}

// maxQueryLimit caps the /query page size: an arbitrary client-chosen
// limit would size the response window (and the JSON the server
// renders) from attacker input.
const maxQueryLimit = 1000

// parseQueryParams validates a /query parameter set strictly: unknown
// parameters are an error (a typoed filter silently matching
// everything is worse than a 400), and every value must parse.
func parseQueryParams(values url.Values) (queryParams, error) {
	p := queryParams{limit: 50}
	for k := range values {
		switch k {
		case "vendor", "product", "cwe", "severity", "year", "limit", "offset", "pretty":
		default:
			return p, fmt.Errorf("unknown query parameter %q (want vendor, product, cwe, severity, year, limit, offset or pretty)", k)
		}
	}
	var err error
	if p.pretty, err = parsePretty(values); err != nil {
		return p, err
	}
	p.vendor = values.Get("vendor")
	p.product = values.Get("product")
	if c := values.Get("cwe"); c != "" {
		id, err := cwe.Parse(c)
		if err != nil {
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
		// Year 0 would mean "no year filter" downstream.
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

// matchVendor returns the vendor of the first CPE name satisfying the
// vendor/product constraints, or "" when neither constraint is set —
// the "vendor" field of a query hit.
func matchVendor(e *nvdclean.Entry, vendor, product string) string {
	if vendor == "" && product == "" {
		return ""
	}
	for _, n := range e.CPEs {
		if vendor != "" && n.Vendor != vendor {
			continue
		}
		if product != "" && n.Product != product {
			continue
		}
		return n.Vendor
	}
	return ""
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

// queryIndexed answers a /query via index intersection: each active
// filter contributes one ordinal posting list, the block-skipping
// ordered merge of which is the match set in snapshot order. Ordinals
// translate to entries only here, at the materialization edge.
func (st *serveState) queryIndexed(p queryParams) queryResponse {
	q := store.Query{
		Vendor: p.vendor, Product: p.product,
		CWE: p.cweID, HasCWE: p.hasCWE,
		Severity: p.sev, HasSeverity: p.hasSev,
		Year: p.year,
	}
	ords, filtered, err := st.idx.Match(q)
	if err != nil {
		// A corrupt lazily-loaded index shard cannot change response
		// bytes: the linear scan answers instead.
		return st.queryScan(p)
	}
	var matched []*nvdclean.Entry
	if !filtered {
		matched = st.res.Cleaned.Entries
	} else {
		entries := st.res.Cleaned.Entries
		matched = make([]*nvdclean.Entry, 0, len(ords))
		for _, o := range ords {
			matched = append(matched, entries[o])
		}
	}
	return st.window(matched, p)
}

// queryScan is the reference linear scan over the cleaned snapshot.
// The handler serves queryIndexed; this path exists so the invariant
// test can prove the indexes change latency, never bytes.
func (st *serveState) queryScan(p queryParams) queryResponse {
	var matched []*nvdclean.Entry
	for _, e := range st.res.Cleaned.Entries {
		if p.year != 0 && e.Year() != p.year {
			continue
		}
		if (p.vendor != "" || p.product != "") && matchVendor(e, p.vendor, p.product) == "" {
			continue
		}
		if p.hasCWE && !e.HasCWE(p.cweID) {
			continue
		}
		if p.hasSev {
			sev, ok := e.SeverityPV3()
			if !ok || sev != p.sev {
				continue
			}
		}
		matched = append(matched, e)
	}
	return st.window(matched, p)
}

// handleQuery filters the cleaned snapshot by consolidated vendor,
// product (both on the same CPE name when combined), CWE type, pv3
// severity band (real v3 when present, backported otherwise) and year,
// paginated by limit/offset. Matching is index-intersection over the
// generation's sharded inverted indexes; repeated queries serve the
// pre-encoded bytes from the generation's canonical-key cache, and
// conditional requests whose validator matches cost a bodiless 304.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := s.state(w)
	if st == nil {
		return
	}
	p, err := parseQueryParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := st.etagFor(p.pretty)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		var cached []byte
		if !p.pretty {
			cached = st.queries.Peek(p.cacheKey())
		}
		s.serveNotModified(w, etag, cached)
		return
	}
	serveRead(w, etag, st.queryBody(p))
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.state(w)
	if st == nil {
		return
	}
	res := st.res
	stats := map[string]any{
		"entries":          res.Cleaned.Len(),
		"capturedAt":       res.Cleaned.CapturedAt,
		"distinctVendors":  res.Cleaned.DistinctVendors(),
		"distinctProducts": res.Cleaned.DistinctProducts(),
		"generation":       st.generation,
		"loadedAt":         st.loadedAt,
		"cleanMillis":      st.cleanDur.Milliseconds(),
		"incremental":      st.incremental,
		"engineWarmStart":  st.warmStart,
		"naming": map[string]any{
			"vendorsConsolidated":  res.VendorMap.Len(),
			"productsConsolidated": res.ProductMap.Len(),
			"cvesVendorChanged":    len(res.VendorChanged),
			"cvesProductChanged":   len(res.ProductChanged),
		},
		"cweCorrection": res.CWECorrection,
	}
	if st.restored {
		stats["warmRestart"] = true
	}
	if st.idx != nil {
		ixs := st.idx.Stats()
		stats["index"] = map[string]any{
			"shards":               ixs.Shards,
			"loadedShards":         ixs.LoadedShards,
			"lazyShards":           ixs.Shards - ixs.LoadedShards,
			"keys":                 ixs.Keys,
			"entries":              ixs.Entries,
			"postingBytesResident": ixs.ResidentBytes,
			"postingBytesOnDisk":   ixs.DiskBytes,
			"format":               ixs.Format,
		}
	}
	m := s.metrics
	stats["readCache"] = map[string]any{
		"entry": map[string]any{
			"hits":          m.EntryHits.Load(),
			"misses":        m.EntryMisses.Load(),
			"cachedEntries": st.entries.Len(),
		},
		"query": map[string]any{
			"hits":          m.QueryHits.Load(),
			"misses":        m.QueryMisses.Load(),
			"evictions":     m.QueryEvictions.Load(),
			"bytesSaved":    m.QueryBytesSaved.Load(),
			"cachedQueries": st.queries.Len(),
			"cachedBytes":   st.queries.Bytes(),
			"capBytes":      s.queryCacheBytes,
		},
		"conditional": map[string]any{
			"notModified": m.NotModified.Load(),
			"bytesSaved":  m.NotModifiedBytes.Load(),
		},
	}
	if s.persist != nil {
		stats["store"] = map[string]any{
			"generation":     s.persist.Generation(),
			"logRecords":     s.persist.LogRecords(),
			"activeRecords":  s.persist.ActiveRecords(),
			"sealedSegments": s.persist.SealedSegments(),
			"commitQueue":    s.committer.Stats(),
			"health":         s.health.status(),
		}
	}
	stats["replication"] = s.replicationStats()
	if res.CrawlStats.URLs > 0 {
		stats["crawl"] = map[string]any{
			"urls":      res.CrawlStats.URLs,
			"fetched":   res.CrawlStats.Fetched,
			"extracted": res.CrawlStats.Extracted,
			"skipped":   res.CrawlStats.Skipped,
			"coverage":  res.CrawlStats.Coverage(),
		}
	}
	if res.Engine != nil {
		best := res.Engine.Best()
		engine := map[string]any{"model": best.String()}
		if ev := res.Engine.Evaluation(best); ev != nil {
			engine["accuracy"] = ev.Accuracy
		}
		if res.Backport != nil {
			engine["backported"] = len(res.Backport.Scores)
		}
		stats["engine"] = engine
	}
	// /stats carries live counters (the cache numbers above change on
	// every read), so it gets no ETag — a validator that rotates per
	// request validates nothing. It still honors ?pretty.
	pretty, err := parsePretty(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(encodeJSON(stats, pretty))
}

// replicationStats builds the /stats replication block. Both roles
// carry one: a primary reports its stream position (what followers
// tail toward), a follower additionally reports its cursor, lag and
// last fetch error — the numbers an operator compares across the
// fleet to see who is behind.
func (s *server) replicationStats() map[string]any {
	if f := s.follower; f != nil {
		return f.statsBlock()
	}
	repl := map[string]any{"role": "primary"}
	if s.persist != nil {
		seq, off := s.persist.ActivePosition()
		repl["cursorSegment"] = seq
		repl["cursorOffset"] = off
		repl["watermark"] = s.persist.Watermark()
	}
	return repl
}

// handleFeed ingests a feed update: the posted body is an NVD JSON 1.1
// feed whose entries are upserted into the current snapshot (mode=
// replace instead treats the body as a complete capture, so entries it
// omits are removed). The delta re-cleans incrementally off the serving
// generation, which keeps serving until the swap.
func (s *server) handleFeed(w http.ResponseWriter, r *http.Request) {
	// A replica's view is defined by its primary's stream: a local
	// write would fork it (and be silently clobbered by the next
	// bootstrap). Point the writer at the primary instead.
	if f := s.follower; f != nil {
		w.Header().Set("Location", f.client.Base()+"/feed")
		writeError(w, http.StatusForbidden,
			"this daemon is a read replica; POST /feed to the primary at %s", f.client.Base())
		return
	}
	// Degraded mode: the store cannot make this write durable, so
	// reject it before parsing the body. Reads are unaffected — the
	// serving generation is immutable and in memory.
	if degraded, reason, diskFull := s.health.isDegraded(); degraded {
		s.persistUnavailable(w, reason, diskFull)
		return
	}
	// Bound the body before the JSON decoder streams it: without this
	// a client can feed an unbounded body into LoadFeed and size the
	// server's heap from the wire.
	body := io.Reader(r.Body)
	if s.maxFeedBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxFeedBytes)
	}
	snap, err := nvdclean.LoadFeed(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "feed body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parsing feed: %v", err)
		return
	}
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	st := s.state(w)
	if st == nil {
		return
	}

	var delta *nvdclean.Delta
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "upsert":
		delta = upsertDelta(st.res.Original, snap)
	case "replace":
		delta = nvdclean.Diff(st.res.Original, snap)
	default:
		writeError(w, http.StatusBadRequest, "bad mode %q (want upsert or replace)", mode)
		return
	}

	summary := map[string]any{
		"added":    len(delta.Added),
		"modified": len(delta.Modified),
		"removed":  len(delta.Removed),
	}
	if delta.Empty() {
		summary["changed"] = 0
		summary["generation"] = st.generation
		writeJSON(w, http.StatusOK, summary)
		return
	}

	out, err := s.advance(r.Context(), transition{delta: delta, appendDelta: true})
	var nd notDurable
	switch {
	case errors.As(err, &nd):
		// Not a 500: the daemon is healthy, the disk is not. Tell the
		// client when to retry.
		s.persistUnavailable(w, nd.Error(), errors.Is(nd.error, syscall.ENOSPC))
		return
	case errors.Is(err, nvdclean.ErrBadDelta):
		// The body is at fault, as when an upsert names a CVE the
		// snapshot holds under another spelling.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "incremental clean: %v", err)
		return
	}
	switch {
	case out.compactErr != nil:
		summary["compactionError"] = out.compactErr.Error()
	case out.sealedSeq != 0:
		summary["compactionQueued"] = true
	}
	summary["changed"] = delta.Size()
	summary["entries"] = out.st.res.Cleaned.Len()
	summary["cleanMillis"] = out.st.cleanDur.Milliseconds()
	summary["engineWarmStart"] = out.st.warmStart
	summary["generation"] = out.st.generation
	writeJSON(w, http.StatusOK, summary)
}

// upsertDelta builds the delta for a partial feed: posted entries are
// added or modified; nothing is removed. This matches the NVD's
// "modified" data feed semantics. Both snapshots are in ID order, so
// the delta's lists are too.
func upsertDelta(cur, posted *nvdclean.Snapshot) *nvdclean.Delta {
	d := &nvdclean.Delta{CapturedAt: posted.CapturedAt}
	if d.CapturedAt.IsZero() {
		d.CapturedAt = cur.CapturedAt
	}
	for _, e := range posted.Entries {
		prev := cur.ByID(e.ID)
		switch {
		case prev == nil:
			d.Added = append(d.Added, e)
		case !prev.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	return d
}

// parseModels turns a comma-separated list ("LR,CNN", "all") into
// model kinds.
func parseModels(s string) ([]predict.ModelKind, error) {
	if s == "" || strings.EqualFold(s, "all") {
		return nil, nil // nil trains the full zoo
	}
	var kinds []predict.ModelKind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, k := range predict.AllModels() {
			if strings.EqualFold(k.String(), name) {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown model %q (want LR, SVR, CNN, DNN or all)", name)
		}
	}
	return kinds, nil
}
