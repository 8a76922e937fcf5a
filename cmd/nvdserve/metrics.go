package main

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvdclean/internal/obs"
)

// serverMetrics is the daemon's production telemetry surface: a
// per-process obs.Registry serving GET /metrics, the HTTP middleware
// instruments, and the domain histograms the handlers feed directly.
//
// Swap-safety: everything here lives on the server, beside — never
// inside — the atomic serveState pointer, so a generation swap can
// only change what the gauge closures *read*, never reset a counter or
// histogram (the same ownership split respcache.Metrics uses for the
// /stats cache counters). Gauges over per-generation facts (index
// residency, generation age) sample s.cur.Load() at scrape time.
type serverMetrics struct {
	registry *obs.Registry

	// HTTP request instruments, filled by the per-route middleware.
	inflight  *obs.Gauge
	requests  *obs.CounterVec   // route, method, code
	duration  *obs.HistogramVec // route, code
	reqBytes  *obs.CounterVec   // route
	respBytes *obs.CounterVec   // route

	// Ingest-path histograms observed by every ingest transition (POST
	// /feed and follower folds), and the checkpoint-write histogram fed
	// by the store's commit observer (the cold boot's inline commit and
	// the background committer both funnel through it).
	ingestDeltaEntries *obs.Histogram
	ingestSwapSeconds  *obs.Histogram
	checkpointSeconds  *obs.Histogram
	checkpointFailures *obs.Counter
}

// newServerMetrics builds the registry and registers every family. The
// gauge closures read s dynamically (attachStore assigns s.persist and
// s.committer after newServer), and nil-guard so the scrape shape is
// stable across configurations: a daemon without a store still exports
// the store families at zero rather than making dashboards conditional
// on deployment flags.
func newServerMetrics(s *server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		registry:  r,
		inflight:  r.Gauge("nvdserve_http_requests_in_flight", "Requests currently being served."),
		requests:  r.CounterVec("nvdserve_http_requests_total", "HTTP requests served, by route pattern, method and status code.", "route", "method", "code"),
		duration:  r.HistogramVec("nvdserve_http_request_duration_seconds", "Request latency from middleware entry to handler return, by route pattern and status code.", obs.LatencyBuckets, "route", "code"),
		reqBytes:  r.CounterVec("nvdserve_http_request_bytes_total", "Request body bytes received (Content-Length), by route pattern.", "route"),
		respBytes: r.CounterVec("nvdserve_http_response_bytes_total", "Response body bytes written, by route pattern.", "route"),

		ingestDeltaEntries: r.Histogram("nvdserve_ingest_delta_entries", "Entries changed per accepted POST /feed delta (added+modified+removed).", obs.ExponentialBuckets(1, 4, 10)),
		ingestSwapSeconds:  r.Histogram("nvdserve_ingest_swap_seconds", "POST /feed ingest latency from delta parse to generation swap (incremental clean included).", obs.LatencyBuckets),
		checkpointSeconds:  r.Histogram("nvdserve_store_checkpoint_seconds", "Wall time of successful checkpoint commits (CommitSealed).", obs.LatencyBuckets),
		checkpointFailures: r.Counter("nvdserve_store_checkpoint_failures_total", "Checkpoint commits that returned an error (each is retried or surfaced to the ingest caller)."),
	}

	// Serving-state gauges: one load of the atomic generation pointer
	// per closure, sampled at scrape time.
	r.GaugeFunc("nvdserve_generation_sequence", "In-memory serving generation (restarts at 1 per boot; see nvdserve_boot_epoch_seconds).", func() float64 {
		if st := s.cur.Load(); st != nil {
			return float64(st.generation)
		}
		return 0
	})
	r.GaugeFunc("nvdserve_generation_age_seconds", "Seconds since the serving generation was installed — replication/staleness lag in one number.", func() float64 {
		if st := s.cur.Load(); st != nil {
			return time.Since(st.loadedAt).Seconds()
		}
		return 0
	})
	r.GaugeFunc("nvdserve_generation_entries", "Entries in the serving generation's cleaned snapshot.", func() float64 {
		if st := s.cur.Load(); st != nil {
			return float64(st.res.Cleaned.Len())
		}
		return 0
	})
	r.GaugeFunc("nvdserve_boot_epoch_seconds", "Boot time of this process as a Unix timestamp (the ETag boot epoch).", func() float64 {
		return float64(s.bootEpoch) / 1e9
	})
	r.GaugeFunc("nvdserve_ready", "1 when /readyz answers 200 (first generation installed, not draining).", func() float64 {
		if ok, _ := s.ready(); ok {
			return 1
		}
		return 0
	})

	// Index residency, from the serving generation's shard stats.
	indexStat := func(pick func(s *server) float64) func() float64 { return func() float64 { return pick(s) } }
	r.GaugeFunc("nvdserve_index_shards", "Query-index shards in the serving generation.", indexStat(func(s *server) float64 {
		if st := s.cur.Load(); st != nil && st.idx != nil {
			return float64(st.idx.Stats().Shards)
		}
		return 0
	}))
	r.GaugeFunc("nvdserve_index_shards_loaded", "Index shards parsed into posting maps (the rest are raw checkpoint segments awaiting first query).", indexStat(func(s *server) float64 {
		if st := s.cur.Load(); st != nil && st.idx != nil {
			return float64(st.idx.Stats().LoadedShards)
		}
		return 0
	}))
	r.GaugeFunc("nvdserve_index_posting_bytes_resident", "Posting-block bytes held in memory by loaded index shards.", indexStat(func(s *server) float64 {
		if st := s.cur.Load(); st != nil && st.idx != nil {
			return float64(st.idx.Stats().ResidentBytes)
		}
		return 0
	}))
	r.GaugeFunc("nvdserve_index_posting_bytes_on_disk", "Index segment bytes as persisted in the current checkpoint (0 for in-memory indexes).", indexStat(func(s *server) float64 {
		if st := s.cur.Load(); st != nil && st.idx != nil {
			return float64(st.idx.Stats().DiskBytes)
		}
		return 0
	}))

	// Store and commit-queue families (zero without -data-dir).
	r.GaugeFunc("nvdserve_store_generation", "Committed checkpoint generation of the persistent store.", func() float64 {
		if s.persist != nil {
			return float64(s.persist.Generation())
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_log_records", "Delta-log records applied on top of the committed checkpoint (sealed + active segments).", func() float64 {
		if s.persist != nil {
			return float64(s.persist.LogRecords())
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_active_log_records", "Records in the active delta-log segment alone — the compaction trigger.", func() float64 {
		if s.persist != nil {
			return float64(s.persist.ActiveRecords())
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_sealed_segments", "Sealed delta-log segments awaiting retirement by a checkpoint commit.", func() float64 {
		if s.persist != nil {
			return float64(s.persist.SealedSegments())
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_wal_seq", "Sequence number of the active delta-log segment (the replication cursor).", func() float64 {
		if s.persist != nil {
			seq, _ := s.persist.ActivePosition()
			return float64(seq)
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_commit_queue_depth", "Checkpoints queued or mid-write in the background committer (latest-wins slot: 0 or 1).", func() float64 {
		if s.committer != nil && s.committer.Stats().Pending {
			return 1
		}
		return 0
	})
	r.CounterFunc("nvdserve_store_commits_total", "Checkpoints committed by the background committer since boot.", func() float64 {
		if s.committer != nil {
			return float64(s.committer.Stats().Committed)
		}
		return 0
	})
	r.CounterFunc("nvdserve_store_commit_retries_total", "Failed background commit attempts (each re-enqueued with backoff unless superseded).", func() float64 {
		if s.committer != nil {
			return float64(s.committer.Stats().Retries)
		}
		return 0
	})
	r.GaugeFunc("nvdserve_store_commit_last_error_age_seconds", "Seconds since the commit queue's last recorded failure; 0 when no failure is outstanding (the next success clears it).", func() float64 {
		if s.committer != nil {
			if st := s.committer.Stats(); st.LastErrorUnix != 0 {
				return float64(time.Now().Unix() - st.LastErrorUnix)
			}
		}
		return 0
	})

	// Degraded-mode families: the store write-health tracker (newServer
	// builds it before this registry). Alert on the gauge; the counters
	// tell whether the daemon is flapping (many recoveries) or stuck
	// (many probes, zero recoveries).
	r.GaugeFunc("nvdserve_store_degraded", "1 while the store cannot accept writes and the daemon serves read-only (POST /feed returns 503/507).", func() float64 {
		if degraded, _, _ := s.health.isDegraded(); degraded {
			return 1
		}
		return 0
	})
	r.CounterFunc("nvdserve_store_persist_failures_total", "Durability failures observed on the ingest path (append, seal, or checkpoint commit); each enters or extends degraded mode.", func() float64 {
		return float64(s.health.status().Failures)
	})
	r.CounterFunc("nvdserve_store_degraded_recoveries_total", "Transitions out of degraded mode back to read-write (a probe or commit proved durable writes work again).", func() float64 {
		return float64(s.health.status().Recoveries)
	})
	r.CounterFunc("nvdserve_store_probes_total", "Durable-write recovery probes attempted while degraded (jittered exponential backoff).", func() float64 {
		return float64(s.health.status().Probes)
	})

	// Replication families (zero on a primary, so the scrape shape is
	// identical across roles and a dashboard can template over the
	// fleet). Follower counters are the follower's own atomics and its
	// cursor is its store's active position; the lag gauge reports -1
	// until the first caught-up confirmation so "never synced" and
	// "zero lag" cannot be confused.
	r.GaugeFunc("nvdserve_replica_follower", "1 when this daemon runs as a read replica (-follow), 0 on a primary.", func() float64 {
		if s.follower != nil {
			return 1
		}
		return 0
	})
	r.GaugeFunc("nvdserve_replica_lag_seconds", "Seconds since the follower last confirmed it held every committed byte of the primary's stream; -1 before the first confirmation, 0 on a primary.", func() float64 {
		if f := s.follower; f != nil {
			if lag, ok := f.lag(); ok {
				return lag.Seconds()
			}
			return -1
		}
		return 0
	})
	r.GaugeFunc("nvdserve_replica_cursor_segment", "Segment seq the follower will fetch next.", func() float64 {
		if s.follower != nil {
			seq, _ := s.persist.ActivePosition()
			return float64(seq)
		}
		return 0
	})
	r.GaugeFunc("nvdserve_replica_cursor_offset", "Byte offset of the follower's cursor within its segment.", func() float64 {
		if s.follower != nil {
			_, off := s.persist.ActivePosition()
			return float64(off)
		}
		return 0
	})
	r.CounterFunc("nvdserve_replica_fetches_total", "Completed /replicate/log polls against the primary.", func() float64 {
		if f := s.follower; f != nil {
			return float64(f.fetches.Load())
		}
		return 0
	})
	r.CounterFunc("nvdserve_replica_fetch_errors_total", "Replication fetches or applies that failed (each retried on the next poll).", func() float64 {
		if f := s.follower; f != nil {
			return float64(f.fetchErrors.Load())
		}
		return 0
	})
	r.CounterFunc("nvdserve_replica_fetch_bytes_total", "Segment bytes fetched from the primary and appended to the local log.", func() float64 {
		if f := s.follower; f != nil {
			return float64(f.fetchBytes.Load())
		}
		return 0
	})
	r.CounterFunc("nvdserve_replica_deltas_applied_total", "Shipped deltas folded into the follower's serving view.", func() float64 {
		if f := s.follower; f != nil {
			return float64(f.deltasApplied.Load())
		}
		return 0
	})
	r.CounterFunc("nvdserve_replica_bootstraps_total", "Checkpoint installs from the primary (cold start plus every post-compaction catch-up).", func() float64 {
		if f := s.follower; f != nil {
			return float64(f.bootstraps.Load())
		}
		return 0
	})

	// Read-cache counters, re-exported from the swap-surviving
	// respcache.Metrics atomics — the same source /stats reads, so the
	// two surfaces can never disagree.
	cm := s.metrics
	r.CounterFunc("nvdserve_respcache_entry_hits_total", "GET /cve/{id} responses served from the pre-encoded entry cache.", func() float64 { return float64(cm.EntryHits.Load()) })
	r.CounterFunc("nvdserve_respcache_entry_misses_total", "GET /cve/{id} responses encoded on first hit.", func() float64 { return float64(cm.EntryMisses.Load()) })
	r.CounterFunc("nvdserve_respcache_query_hits_total", "GET /query responses served from the canonical-key LRU.", func() float64 { return float64(cm.QueryHits.Load()) })
	r.CounterFunc("nvdserve_respcache_query_misses_total", "GET /query responses rendered per request.", func() float64 { return float64(cm.QueryMisses.Load()) })
	r.CounterFunc("nvdserve_respcache_query_evictions_total", "LRU evictions from the /query response cache.", func() float64 { return float64(cm.QueryEvictions.Load()) })
	r.CounterFunc("nvdserve_respcache_query_bytes_saved_total", "Response bytes served from the /query cache instead of re-rendered.", func() float64 { return float64(cm.QueryBytesSaved.Load()) })
	r.CounterFunc("nvdserve_respcache_not_modified_total", "Conditional requests answered with a bodiless 304.", func() float64 { return float64(cm.NotModified.Load()) })
	r.CounterFunc("nvdserve_respcache_not_modified_bytes_saved_total", "Representation bytes 304 responses did not resend (counted when cheaply known).", func() float64 { return float64(cm.NotModifiedBytes.Load()) })

	return m
}

// observeCheckpoint is the store commit observer: successful commit
// wall times feed the checkpoint histogram, failures count — the
// committer's own retry counter tracks re-enqueues, this one also sees
// the cold boot's inline commit errors.
func (m *serverMetrics) observeCheckpoint(d time.Duration, err error) {
	if err != nil {
		m.checkpointFailures.Inc()
		return
	}
	m.checkpointSeconds.Observe(d.Seconds())
}

// codeInstruments is the pre-resolved child set for one (route,
// method, code) combination — steady state touches only these atomics.
type codeInstruments struct {
	requests *obs.Counter
	duration *obs.Histogram
}

// routeInstruments instruments one registered route. Children are
// interned per status code in an int-keyed copy-on-write map: the warm
// path reads it through one atomic pointer load — no lock word to
// bounce between cores — then pays only the handful of atomic adds on
// the child. Interning a new code (rare: a route sees a few distinct
// statuses ever) copies the map under a plain mutex.
type routeInstruments struct {
	m             *serverMetrics
	route, method string
	reqBytes      *obs.Counter
	respBytes     *obs.Counter

	byCode atomic.Pointer[map[int]*codeInstruments]
	mu     sync.Mutex // serializes interning only; readers never take it
}

func (ri *routeInstruments) code(status int) *codeInstruments {
	if ci, ok := (*ri.byCode.Load())[status]; ok {
		return ci
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	cur := *ri.byCode.Load()
	if ci, ok := cur[status]; ok {
		return ci
	}
	code := strconv.Itoa(status)
	ci := &codeInstruments{
		requests: ri.m.requests.With(ri.route, ri.method, code),
		duration: ri.m.duration.With(ri.route, code),
	}
	next := make(map[int]*codeInstruments, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[status] = ci
	ri.byCode.Store(&next)
	return ci
}

// statusRecorder captures the status code and body bytes a handler
// writes. Recorders are pooled: the read hot path must not pay an
// allocation per request for its own accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

var recorderPool = sync.Pool{New: func() any { return &statusRecorder{} }}

// instrument wraps h with the request middleware under a fixed route
// pattern label (the mux pattern, never the raw URL — /cve/{id} is one
// series regardless of how many IDs exist).
func (m *serverMetrics) instrument(route, method string, h http.HandlerFunc) http.HandlerFunc {
	ri := &routeInstruments{
		m: m, route: route, method: method,
		reqBytes:  m.reqBytes.With(route),
		respBytes: m.respBytes.With(route),
	}
	ri.byCode.Store(&map[int]*codeInstruments{})
	// Pre-intern the 200 child: almost every request resolves to it,
	// and a direct field beats even the lock-free map.
	ok := ri.code(http.StatusOK)
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.Nanotime()
		m.inflight.Add(1)
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status, rec.bytes = w, 0, 0
		h(rec, r)
		elapsed := obs.Nanotime() - start
		m.inflight.Add(-1)
		status, written := rec.status, rec.bytes
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
		// status 0 means the handler returned without writing: the
		// net/http default is 200.
		ci := ok
		if status != http.StatusOK && status != 0 {
			ci = ri.code(status)
		}
		ci.requests.Inc()
		ci.duration.Observe(float64(elapsed) / 1e9)
		if n := r.ContentLength; n > 0 {
			ri.reqBytes.Add(n)
		}
		if written > 0 {
			ri.respBytes.Add(written)
		}
	}
}

// handleMetrics serves the Prometheus scrape.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.obs.registry.ServeHTTP(w, r)
}

// pprofMux builds the net/http/pprof handler set for the optional
// -pprof-addr listener. Profiling gets its own listener so a scrape or
// trace can never contend with (or be exposed on) the serving port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
