package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/replica"
	"nvdclean/internal/respcache"
	"nvdclean/internal/store"
)

// The traced replay performs a run's operations back to back in this
// process, calling each layer's public Go functions in the order the
// daemon does and recording one span per call. Spans live in memory and
// are written as JSON when the run ends. Per-layer metrics are the
// median self time of a span name within one kind of operation.

// span is one timed call. Spans of one operation share Op; Parent is
// the index of the enclosing span, -1 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ops   int
	kind  string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.ops, Kind: t.kind, Parent: parent, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// op runs fn as one operation of the given kind under a root span.
func (t *tracer) op(kind string, fn func() error) error {
	t.ops++
	t.kind = kind
	i := t.begin(kind)
	err := fn()
	t.end(i)
	return err
}

// call runs fn under a child span of the current operation.
func (t *tracer) call(name string, fn func() error) error {
	i := t.begin(name)
	err := fn()
	t.end(i)
	return err
}

// node is one replayed daemon: its store and serving generation.
type node struct {
	st      *store.Store
	dir     string
	res     *nvdclean.Result
	byID    map[string]*cve.Entry
	idx     *store.Index
	entries *respcache.EntryCache
	queries *respcache.QueryCache
	metrics *respcache.Metrics
	// pending is a sealed segment whose checkpoint the daemon's
	// background committer would write next.
	pending    *store.Checkpoint
	pendingSeq uint64
}

// install makes res the node's serving generation, as newState does:
// backported scores materialize into the cleaned view, byID is
// rebuilt, and given the previous generation the index and the /cve
// cache advance incrementally from the cleaned-view delta.
func (n *node) install(t *tracer, res *nvdclean.Result, feedDelta *cve.Delta, restored *store.Index) error {
	prev := *n
	_ = t.call("nvdclean.ApplyBackport", func() error { nvdclean.ApplyBackport(res.Cleaned, res.Backport); return nil })
	_ = t.call("nvdserve.byID", func() error {
		n.byID = make(map[string]*cve.Entry, res.Cleaned.Len())
		for _, e := range res.Cleaned.Entries {
			n.byID[e.ID] = e
		}
		return nil
	})
	n.res = res
	n.entries = respcache.NewEntryCache(n.metrics)
	n.queries = respcache.NewQueryCache(4<<20, n.metrics)
	switch {
	case restored != nil:
		n.idx = restored
	case prev.idx != nil:
		var cleaned *cve.Delta
		_ = t.call("cve.Diff/cleaned", func() error { cleaned = cve.Diff(prev.res.Cleaned, res.Cleaned); return nil })
		if err := t.call("store.Index.Update", func() (err error) {
			n.idx, err = prev.idx.Update(cleaned, func(id string) *cve.Entry { return prev.byID[id] }, res.Cleaned, 0)
			return err
		}); err != nil {
			return err
		}
		_ = t.call("respcache.EntryCache.Seed", func() error {
			stale := map[string]bool{}
			for _, d := range []*cve.Delta{cleaned, feedDelta} {
				for _, id := range d.ChangedIDs() {
					stale[id] = true
				}
				for _, id := range d.Removed {
					stale[id] = true
				}
			}
			n.entries.Seed(prev.entries, func(id string) bool {
				_, alive := n.byID[id]
				return alive && !stale[id]
			})
			return nil
		})
	default:
		_ = t.call("store.BuildIndex", func() error { n.idx = store.BuildIndex(res.Cleaned, 0); return nil })
	}
	return nil
}

// seal closes the node's active segment and queues its checkpoint for
// the next commit operation, as POST /feed's compaction does.
func (n *node) seal(t *tracer) error {
	var cp *store.Checkpoint
	_ = t.call("nvdclean.StoreCheckpoint", func() error { cp = n.res.StoreCheckpoint(); return nil })
	cp.Index = n.idx
	return t.call("store.Seal", func() (err error) {
		n.pendingSeq, err = n.st.Seal()
		n.pending = cp
		return err
	})
}

func (n *node) commitPending(t *tracer) error {
	if n.pending == nil {
		return nil
	}
	cp := n.pending
	n.pending = nil
	return t.op("commit", func() error {
		return t.call("store.CommitSealed", func() error { return n.st.CommitSealed(cp, n.pendingSeq) })
	})
}

// replayReads bounds the replay's reads so a traced run stays within
// its time budget at 20K entries. Read-only workloads replay
// replayProbePosts of their seeded posts so every write-path layer
// still reports: their numbers then describe the write path at that
// workload's snapshot size.
const (
	replayReads      = 2000
	replayProbePosts = 8
)

// replay runs the traced in-process replay of workload w: boot, a
// follower bootstrap, the workload's read mix, posts (each followed by
// the follower's tail and any pending commits), and a warm restart.
func replay(ctx context.Context, t *tracer, dir string, w workload, in *inputs, seed int64, posts int) (*replayStats, error) {
	opts := daemonOptions()
	prim := &node{dir: filepath.Join(dir, "primary"), metrics: &respcache.Metrics{}}
	fol := &node{dir: filepath.Join(dir, "follower"), metrics: &respcache.Metrics{}}
	stats := &replayStats{t: t}
	defer func() {
		for _, n := range []*node{prim, fol} {
			if n.st != nil {
				n.st.Close()
			}
		}
	}()

	if err := t.op("boot", func() error {
		var snap *cve.Snapshot
		if err := t.call("cve.ReadFeed", func() (err error) { snap, err = cve.ReadFeed(bytes.NewReader(in.feed)); return err }); err != nil {
			return err
		}
		var res *nvdclean.Result
		if err := t.call("nvdclean.Clean", func() (err error) { res, err = nvdclean.Clean(ctx, snap, opts); return err }); err != nil {
			return err
		}
		if err := prim.install(t, res, nil, nil); err != nil {
			return err
		}
		var cp *store.Checkpoint
		_ = t.call("nvdclean.StoreCheckpoint", func() error { cp = res.StoreCheckpoint(); return nil })
		cp.Index = prim.idx
		if err := t.call("store.Open", func() (err error) { prim.st, _, _, _, err = store.Open(prim.dir); return err }); err != nil {
			return err
		}
		return t.call("store.Commit", func() error { return prim.st.Commit(cp) })
	}); err != nil {
		return nil, fmt.Errorf("replay boot: %w", err)
	}

	var cursorSeq uint64
	var cursorOff int64
	if err := t.op("bootstrap", func() error {
		var rm *store.ReplicationManifest
		if err := t.call("store.ReplicationManifest", func() (err error) { rm, err = prim.st.ReplicationManifest(); return err }); err != nil {
			return err
		}
		if err := t.call("store.Open", func() (err error) { fol.st, _, _, _, err = store.Open(fol.dir); return err }); err != nil {
			return err
		}
		var cp *store.Checkpoint
		if err := t.call("store.InstallCheckpoint", func() (err error) {
			cp, err = fol.st.InstallCheckpoint(rm, func(mf store.ManifestFile) (io.ReadCloser, error) {
				rc, _, err := prim.st.CheckpointFile(mf.Name)
				return rc, err
			})
			return err
		}); err != nil {
			return err
		}
		var res *nvdclean.Result
		if err := t.call("nvdclean.RestoreResult", func() (err error) { res, err = nvdclean.RestoreResult(cp, opts); return err }); err != nil {
			return err
		}
		cursorSeq, cursorOff = rm.CheckpointSeq+1, 0
		return fol.install(t, res, nil, cp.Index)
	}); err != nil {
		return nil, fmt.Errorf("replay bootstrap: %w", err)
	}

	m := newMix(in, w.cold, seed, 0)
	for i := 0; i < replayReads; i++ {
		path, _ := m.next()
		if err := t.op("read", func() error { return stats.read(t, prim, path) }); err != nil {
			return nil, fmt.Errorf("replay read %s: %w", path, err)
		}
	}

	for i := 0; i < posts; i++ {
		p := in.posts[i]
		var delta *cve.Delta
		if err := t.op("ingest", func() error {
			var snap *cve.Snapshot
			if err := t.call("cve.ReadFeed", func() (err error) { snap, err = cve.ReadFeed(bytes.NewReader(p.body)); return err }); err != nil {
				return err
			}
			_ = t.call("nvdserve.upsertDelta", func() error {
				orig := make(map[string]*cve.Entry, prim.res.Original.Len())
				for _, e := range prim.res.Original.Entries {
					orig[e.ID] = e
				}
				delta = upsert(orig, snap.Entries)
				return nil
			})
			var res *nvdclean.Result
			if err := t.call("nvdclean.CleanDelta", func() (err error) { res, err = nvdclean.CleanDelta(ctx, prim.res, delta, opts); return err }); err != nil {
				return err
			}
			if res.Engine != nil && res.Engine == prim.res.Engine {
				stats.warm++
			}
			stats.ingests++
			if err := t.call("store.AppendDelta", func() error { return prim.st.AppendDelta(delta) }); err != nil {
				return err
			}
			if err := prim.install(t, res, delta, nil); err != nil {
				return err
			}
			if prim.st.ActiveRecords() >= compactEvery {
				return prim.seal(t)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("replay ingest %d: %w", i, err)
		}

		// The follower's tail: fetch the new frames, append them
		// verbatim, fold them into its view, and mirror a seal.
		if err := t.op("tail", func() error {
			var data []byte
			var sealed bool
			if err := t.call("store.ReadSegment", func() (err error) { data, sealed, err = prim.st.ReadSegment(cursorSeq, cursorOff); return err }); err != nil {
				return err
			}
			var deltas []*cve.Delta
			if err := t.call("store.AppendFrames", func() (err error) { deltas, err = fol.st.AppendFrames(data); return err }); err != nil {
				return err
			}
			cursorOff += int64(len(data))
			if err := fol.fold(ctx, t, deltas, opts); err != nil {
				return err
			}
			if sealed {
				if err := fol.seal(t); err != nil {
					return err
				}
				cursorSeq, cursorOff = fol.pendingSeq+1, 0
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("replay tail %d: %w", i, err)
		}
		if err := fol.commitPending(t); err != nil {
			return nil, err
		}
		if err := prim.commitPending(t); err != nil {
			return nil, err
		}
	}

	if err := t.op("restart", func() error {
		if err := prim.st.Close(); err != nil {
			return err
		}
		var cp *store.Checkpoint
		var logged []*cve.Delta
		if err := t.call("store.Open", func() (err error) { prim.st, cp, logged, _, err = store.Open(prim.dir); return err }); err != nil {
			return err
		}
		var res *nvdclean.Result
		if err := t.call("nvdclean.RestoreResult", func() (err error) { res, err = nvdclean.RestoreResult(cp, opts); return err }); err != nil {
			return err
		}
		if err := prim.install(t, res, nil, cp.Index); err != nil {
			return err
		}
		return prim.fold(ctx, t, logged, opts)
	}); err != nil {
		return nil, fmt.Errorf("replay restart: %w", err)
	}
	return stats, nil
}

// compactEvery matches nvdserve's default -compact-every.
const compactEvery = 8

// fold applies logged or shipped deltas to the node's view through one
// CleanDelta, as the follower's fold and the warm boot do.
func (n *node) fold(ctx context.Context, t *tracer, deltas []*cve.Delta, opts nvdclean.Options) error {
	if len(deltas) == 0 {
		return nil
	}
	merged := n.res.Original
	_ = t.call("cve.ApplyDelta", func() error {
		for _, d := range deltas {
			merged = merged.ApplyDelta(d)
		}
		return nil
	})
	var total *cve.Delta
	_ = t.call("cve.Diff/feed", func() error { total = cve.Diff(n.res.Original, merged); return nil })
	if total.Empty() {
		return nil
	}
	var res *nvdclean.Result
	if err := t.call("nvdclean.CleanDelta", func() (err error) { res, err = nvdclean.CleanDelta(ctx, n.res, total, opts); return err }); err != nil {
		return err
	}
	return n.install(t, res, total, nil)
}

// replayStats carries the replay's counts beside its spans.
type replayStats struct {
	t                  *tracer
	ingests, warm      int
	examined, returned int
}

// read replays one GET: /cve through the entry cache, /query through
// the query cache and, on a miss, the index. Encoding is this
// benchmark's stand-in for the daemon's view rendering.
func (s *replayStats) read(t *tracer, n *node, path string) error {
	if id, ok := strings.CutPrefix(path, "/cve/"); ok {
		e := n.byID[id]
		return t.call("respcache.EntryCache.Get", func() error {
			n.entries.Get(id, func() []byte { b, _ := json.Marshal(e); return b })
			return nil
		})
	}
	raw, _ := strings.CutPrefix(path, "/query?")
	var hit bool
	_ = t.call("respcache.QueryCache.Get", func() error { _, hit = n.queries.Get(raw); return nil })
	if hit {
		return nil
	}
	q, limit, offset, err := parseQuery(raw)
	if err != nil {
		return err
	}
	var ords []uint32
	if err := t.call("store.Index.Match", func() (err error) { ords, _, err = n.idx.Match(q); return err }); err != nil {
		return err
	}
	var body []byte
	_ = t.call("nvdserve.encode", func() error {
		lo, hi := min(offset, len(ords)), min(offset+limit, len(ords))
		ids := make([]string, 0, hi-lo)
		for _, o := range ords[lo:hi] {
			ids = append(ids, n.res.Cleaned.Entries[o].ID)
		}
		body, _ = json.Marshal(ids)
		return nil
	})
	_ = t.call("respcache.QueryCache.Put", func() error { n.queries.Put(raw, body); return nil })
	// Postings examined: every filter's whole list, measured outside
	// the spans by matching each filter alone.
	s.returned += len(ords)
	for _, single := range splitQuery(q) {
		o, _, err := n.idx.Match(single)
		if err != nil {
			return err
		}
		s.examined += len(o)
	}
	return nil
}

// parseQuery turns a generated /query parameter string into the index
// query nvdserve would run, plus its page window.
func parseQuery(raw string) (store.Query, int, int, error) {
	var q store.Query
	v, err := url.ParseQuery(raw)
	if err != nil {
		return q, 0, 0, err
	}
	q.Vendor, q.Product = v.Get("vendor"), v.Get("product")
	if c := v.Get("cwe"); c != "" {
		if q.CWE, err = cwe.Parse(c); err != nil {
			return q, 0, 0, err
		}
		q.HasCWE = true
	}
	if s := v.Get("severity"); s != "" {
		if q.Severity, q.HasSeverity = cvss.ParseSeverity(s); !q.HasSeverity {
			return q, 0, 0, fmt.Errorf("bad severity %q", s)
		}
	}
	if y := v.Get("year"); y != "" {
		if q.Year, err = strconv.Atoi(y); err != nil {
			return q, 0, 0, err
		}
	}
	limit, offset := 50, 0
	if l := v.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil {
			return q, 0, 0, err
		}
	}
	if o := v.Get("offset"); o != "" {
		if offset, err = strconv.Atoi(o); err != nil {
			return q, 0, 0, err
		}
	}
	return q, limit, offset, nil
}

// splitQuery returns one single-filter query per posting list q
// intersects (vendor+product is one pair list).
func splitQuery(q store.Query) []store.Query {
	var out []store.Query
	if q.Vendor != "" || q.Product != "" {
		out = append(out, store.Query{Vendor: q.Vendor, Product: q.Product})
	}
	if q.HasCWE {
		out = append(out, store.Query{CWE: q.CWE, HasCWE: true})
	}
	if q.HasSeverity {
		out = append(out, store.Query{Severity: q.Severity, HasSeverity: true})
	}
	if q.Year != 0 {
		out = append(out, store.Query{Year: q.Year})
	}
	return out
}

// timeLogFetches times the replica client's log fetch against a live
// primary: manifest, then repeated reads of the active segment from its
// start — what a follower pays per poll.
func timeLogFetches(ctx context.Context, t *tracer, base string) error {
	c := replica.NewClient(base)
	return t.op("fetch", func() error {
		var rm *store.ReplicationManifest
		if err := t.call("replica.Client.Manifest", func() (err error) { rm, err = c.Manifest(ctx); return err }); err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if err := t.call("replica.Client.Log", func() error { _, err := c.Log(ctx, rm.WALSeq, 0); return err }); err != nil {
				return err
			}
		}
		return nil
	})
}

// selfTimes returns, for every span matching kind and name, its
// duration minus the part its direct children cover.
func (t *tracer) selfTimes(kind, name string) []float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Kind == kind && s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start-covered[i])))
		}
	}
	return out
}

// roots returns each operation of kind's root duration and the share of
// it its direct children cover.
func (t *tracer) roots(kind string) (durs, coverage []float64) {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Kind == kind && s.Parent < 0 {
			d := s.End - s.Start
			durs = append(durs, ms(time.Duration(d)))
			coverage = append(coverage, float64(covered[i])/float64(d))
		}
	}
	return durs, coverage
}

// metrics derives the per-layer numbers from the spans into v.
func (s *replayStats) metrics(v map[string]float64, w workload) {
	t := s.t
	self := func(kind, name string) float64 { return median(t.selfTimes(kind, name)) }
	v["cve.read_feed_ms"] = self("ingest", "cve.ReadFeed")
	v["cve.diff_cleaned_ms"] = self("ingest", "cve.Diff/cleaned")
	v["cve.apply_delta_ms"] = self("tail", "cve.ApplyDelta")
	v["nvdclean.clean_s"] = self("boot", "nvdclean.Clean") / 1e3
	v["nvdclean.clean_delta_ms"] = self("ingest", "nvdclean.CleanDelta")
	v["nvdclean.warm_start_ratio"] = ratio(float64(s.warm), float64(s.ingests))
	v["nvdclean.apply_backport_ms"] = self("ingest", "nvdclean.ApplyBackport")
	v["nvdclean.store_checkpoint_ms"] = self("ingest", "nvdclean.StoreCheckpoint")
	v["nvdclean.restore_ms"] = self("restart", "nvdclean.RestoreResult")
	v["store.append_ms"] = self("ingest", "store.AppendDelta")
	v["store.seal_ms"] = self("ingest", "store.Seal")
	v["store.commit_ms"] = self("commit", "store.CommitSealed")
	v["store.index_build_ms"] = self("boot", "store.BuildIndex")
	v["store.index_update_ms"] = self("ingest", "store.Index.Update")
	v["store.index_match_us"] = self("read", "store.Index.Match") * 1e3
	v["store.match_examined_per_returned"] = ratio(float64(s.examined), float64(s.returned))
	v["store.open_s"] = self("restart", "store.Open") / 1e3
	v["store.install_ms"] = self("bootstrap", "store.InstallCheckpoint")
	v["store.read_segment_us"] = self("tail", "store.ReadSegment") * 1e3
	v["respcache.seed_ms"] = self("ingest", "respcache.EntryCache.Seed")
	v["replica.log_fetch_ms"] = self("fetch", "replica.Client.Log")

	ingest, coverage := t.roots("ingest")
	v["nvdserve.ingest_swap_ms"] = median(ingest)
	low := 1.0
	for _, c := range coverage {
		low = min(low, c)
	}
	v["trace.coverage_ratio"] = low
	// The replay's counterpart of op_p50_ms: what the layers alone
	// cost for the workload's defining operation.
	switch {
	case w.follower:
		tail, _ := t.roots("tail")
		v["trace.op_p50_ms"] = median(ingest) + median(tail)
	case w.postRate > 0:
		v["trace.op_p50_ms"] = median(ingest)
	default:
		reads, _ := t.roots("read")
		v["trace.op_p50_ms"] = median(reads)
	}
}

func (t *tracer) write(path string, w workload, seed int64) error {
	if path == "" {
		return nil
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
