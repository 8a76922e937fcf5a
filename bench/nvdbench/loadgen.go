package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// newConn returns an HTTP client that holds at most one TCP connection
// per listener. The generator owns exactly two of these, each used by
// one goroutine at a time, so it never has more than two requests in
// flight.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// dropConns closes c's idle connections, so a client can move to
// another daemon without holding a connection to the old one.
func dropConns(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// sleepUntil waits for t with nanosleep: the runtime timer rounds short
// sleeps up to the next millisecond tick, which would make the
// generator itself the largest source of lateness at 1000 req/s.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

var hashSeed = maphash.MakeSeed()

// seenResp is the last 200 a connection got for one path.
type seenResp struct {
	etag string
	sum  uint64
}

// recorder accumulates one connection's samples and correctness
// verdicts. Each goroutine owns its recorder; merge joins them after
// the goroutines finish.
type recorder struct {
	reads      []float64 // open-loop GET latency from due time, ms
	acks       []float64 // POST /feed acknowledgement latency from due time, ms
	visible    []float64 // acknowledgement to follower serving the post, ms
	late       []float64 // send time minus due time, ms
	backlogMax int
	closed     int // successful closed-loop GETs

	attempted, failed int
	failures          []string

	seen map[string]seenResp
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{seen: make(map[string]seenResp)} }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	r.reads = append(r.reads, o.reads...)
	r.acks = append(r.acks, o.acks...)
	r.visible = append(r.visible, o.visible...)
	r.late = append(r.late, o.late...)
	r.backlogMax = max(r.backlogMax, o.backlogMax)
	r.closed += o.closed
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// do sends one request and reads the whole body into r.buf. The body
// is valid until the next call.
func (r *recorder) do(ctx context.Context, c *http.Client, method, url string, body []byte, inm string) (int, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	r.buf.Reset()
	if _, err := r.buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// get performs one checked GET of path on base: conditional requests
// carry the last validator this connection saw for path. It enforces
// the read-path contract: a 304 only for the validator sent, never a
// 200 for it, and one validator never covering two different bodies.
func (r *recorder) get(ctx context.Context, c *http.Client, base, path string, conditional bool) bool {
	r.attempted++
	prev, known := r.seen[path]
	inm := ""
	if conditional && known {
		inm = prev.etag
	}
	status, etag, err := r.do(ctx, c, http.MethodGet, base+path, nil, inm)
	switch {
	case err != nil:
		r.fail("GET %s: %v", path, err)
		return false
	case status == http.StatusNotModified:
		if inm == "" || etag != inm {
			r.fail("GET %s: 304 for validator %q answering %q", path, etag, inm)
			return false
		}
	case status == http.StatusOK:
		sum := maphash.Bytes(hashSeed, r.buf.Bytes())
		switch {
		case etag == "":
			r.fail("GET %s: 200 without a validator", path)
			return false
		case inm != "" && etag == inm:
			r.fail("GET %s: 200 for a matching validator %s", path, inm)
			return false
		case known && prev.etag == etag && prev.sum != sum:
			r.fail("GET %s: validator %s served two different bodies", path, etag)
			return false
		}
		r.seen[path] = seenResp{etag: etag, sum: sum}
	default:
		r.fail("GET %s: status %d", path, status)
		return false
	}
	return true
}

// openLoop runs a fixed-rate schedule: slot i is due at
// start+offset+i*period for every due time before start+dur. Each slot
// waits for its due time, then calls send. A slot that comes due while
// an earlier request is still out is sent late; send measures its
// latency from due all the same, so a stall is charged to every
// request it delayed. idle, when set, runs while the loop waits and
// reports whether it did any work (and so whether to check the clock
// again before sleeping).
func openLoop(start time.Time, period, offset, dur time.Duration, rec *recorder, idle func() bool, send func(i int, due time.Time)) {
	for i := 0; ; i++ {
		at := offset + time.Duration(i)*period
		if at >= dur {
			return
		}
		due := start.Add(at)
		for idle != nil && time.Now().Before(due) {
			if !idle() {
				sleepUntil(minTime(due, time.Now().Add(probeEvery)))
			}
		}
		sleepUntil(due)
		sent := time.Now()
		rec.late = append(rec.late, ms(sent.Sub(due)))
		if backlog := int(sent.Sub(start.Add(offset))/period) - i; backlog > rec.backlogMax {
			rec.backlogMax = backlog
		}
		send(i, due)
	}
}

// closedLoop sends up to limit GETs back to back until the deadline,
// counting the successful ones: the read capacity at two connections.
func closedLoop(ctx context.Context, c *http.Client, base string, m *mix, rec *recorder, limit int, until time.Time) {
	for i := 0; i < limit && time.Now().Before(until); i++ {
		path, conditional := m.next()
		if rec.get(ctx, c, base, path, conditional) {
			rec.closed++
		}
	}
}

// feedAck is the subset of POST /feed's JSON summary the checks use.
type feedAck struct {
	Changed int `json:"changed"`
}

// sendPost posts p to base and, once acknowledged, reads the first
// upserted entry back on the same connection: an acknowledged write
// must be visible to the writer's next read.
func (r *recorder) sendPost(ctx context.Context, c *http.Client, base string, p post, due time.Time) bool {
	r.attempted++
	status, _, err := r.do(ctx, c, http.MethodPost, base+"/feed", p.body, "")
	done := time.Now()
	if err != nil || status != http.StatusOK {
		r.fail("POST /feed: status %d, %v: %s", status, err, truncate(r.buf.String()))
		return false
	}
	var ack feedAck
	if err := json.Unmarshal(r.buf.Bytes(), &ack); err != nil || ack.Changed != len(p.entries) {
		r.fail("POST /feed: acknowledged %q, want %d changed entries", truncate(r.buf.String()), len(p.entries))
		return false
	}
	r.acks = append(r.acks, ms(done.Sub(due)))
	return r.readsBack(ctx, c, base, p.entries[0].ID, p.marker)
}

// readsBack checks that base serves entry id with the bytes of its
// acknowledged update marker.
func (r *recorder) readsBack(ctx context.Context, c *http.Client, base, id, marker string) bool {
	r.attempted++
	status, _, err := r.do(ctx, c, http.MethodGet, base+"/cve/"+id, nil, "")
	if err != nil || status != http.StatusOK || !bytes.Contains(r.buf.Bytes(), []byte(marker)) {
		r.fail("GET /cve/%s does not serve its acknowledged update %s: status %d, %v", id, marker, status, err)
		return false
	}
	return true
}

// probeEvery is how often pending visibility probes are re-sent.
const probeEvery = 5 * time.Millisecond

// prober tracks acknowledged posts until the follower serves them. The
// post goroutine adds, the follower's read goroutine probes.
type prober struct {
	mu      sync.Mutex
	pending []probe
	// markers lists, per CVE ID, the markers of its acknowledged posts
	// in order: a later post to the same ID also proves the earlier one
	// arrived.
	markers map[string][]string
	last    time.Time
}

type probe struct {
	id    string
	idx   int  // position of this post's marker in markers[id]
	added bool // the post adds id, so a 404 means "not yet"
	ackAt time.Time
	etag  string
}

func newProber() *prober { return &prober{markers: make(map[string][]string)} }

func (pr *prober) add(p post, ackAt time.Time) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	id := p.entries[0].ID
	pr.markers[id] = append(pr.markers[id], p.marker)
	pr.pending = append(pr.pending, probe{id: id, idx: len(pr.markers[id]) - 1, added: p.added, ackAt: ackAt})
}

func (pr *prober) outstanding() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.pending)
}

// poll re-sends every pending probe once probeEvery has passed since the
// last round, recording each newly visible post's ack-to-visible time
// in rec.visible. It reports whether it sent anything.
func (pr *prober) poll(ctx context.Context, c *http.Client, base string, rec *recorder) bool {
	pr.mu.Lock()
	if len(pr.pending) == 0 || time.Since(pr.last) < probeEvery {
		pr.mu.Unlock()
		return false
	}
	pr.last = time.Now()
	todo := append([]probe(nil), pr.pending...)
	pr.mu.Unlock()

	var visible []int
	for k, p := range todo {
		rec.attempted++
		status, etag, err := rec.do(ctx, c, http.MethodGet, base+"/cve/"+p.id, nil, p.etag)
		at := time.Now()
		switch {
		case err != nil:
			rec.fail("probe /cve/%s: %v", p.id, err)
		case status == http.StatusNotModified && etag == p.etag:
		case status == http.StatusNotFound && p.added:
			// A new CVE the follower has not folded in yet.
		case status == http.StatusOK:
			todo[k].etag = etag
			pr.mu.Lock()
			later := append([]string(nil), pr.markers[p.id][p.idx:]...)
			pr.mu.Unlock()
			for _, m := range later {
				if bytes.Contains(rec.buf.Bytes(), []byte(m)) {
					rec.visible = append(rec.visible, ms(at.Sub(p.ackAt)))
					visible = append(visible, k)
					break
				}
			}
		default:
			rec.fail("probe /cve/%s: status %d, validator %q for %q", p.id, status, etag, p.etag)
		}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	// Posts acknowledged during this round were appended after todo's
	// prefix; keep them, and keep the probes still waiting.
	rest := pr.pending[len(todo):]
	kept := make([]probe, 0, len(pr.pending))
	for k, p := range todo {
		if len(visible) > 0 && visible[0] == k {
			visible = visible[1:]
			continue
		}
		kept = append(kept, p)
	}
	pr.pending = append(kept, rest...)
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func truncate(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
