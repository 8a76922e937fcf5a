package store

import (
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// Committer runs checkpoint commits off the ingest hot path. The feed
// handler seals the active segment, builds the sealed generation's
// Checkpoint document (cheap — it shares the in-memory snapshots and
// maps), and enqueues it here; the committer goroutine pays the disk
// write, swaps CURRENT and retires the folded segments.
//
// The queue is a single latest-wins slot: every enqueued checkpoint is
// a complete image of the store, so a newer one strictly supersedes an
// older one that has not started writing — committing only the newest
// loses nothing and skips obsolete disk work. Durability never depends
// on the queue: every acknowledged delta is fsynced in some live
// segment before its checkpoint is even built, so a failed or skipped
// commit merely leaves the old checkpoint plus all segments intact.
// Failed commits are re-enqueued and retried with exponential backoff
// (unless a newer checkpoint superseded them) and surfaced in Stats
// for /stats. A checkpoint whose seq the committed watermark has
// already passed is dropped without a retry.
type Committer struct {
	s *Store

	mu sync.Mutex
	// backoff and maxBackoff bound the retry delay after a failed
	// commit (doubling per consecutive failure); see SetBackoff.
	backoff    time.Duration
	maxBackoff time.Duration
	pending    *commitReq
	inflight   bool
	committed  int
	retries    int
	lastErr    string
	lastErrAt  time.Time

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

type commitReq struct {
	cp  *Checkpoint
	seq uint64
}

// CommitterStats is a point-in-time view of the commit queue, shaped
// for /stats.
type CommitterStats struct {
	// Pending reports a checkpoint waiting in the queue (or mid-write).
	Pending bool `json:"pending"`
	// Committed counts checkpoints committed since the committer
	// started.
	Committed int `json:"committed"`
	// Retries counts failed commit attempts (each is re-enqueued with
	// backoff unless superseded).
	Retries int `json:"retries"`
	// LastError is the most recent commit failure, cleared by the next
	// success.
	LastError string `json:"lastError,omitempty"`
	// LastErrorUnix is the Unix time LastError was recorded (0 when
	// there is none): an operator reading /stats can tell a stale error
	// — long since retried past — from a live one without tailing logs.
	LastErrorUnix int64 `json:"lastErrorUnix,omitempty"`
}

// NewCommitter starts a background committer for s. Close it before
// closing the store.
func NewCommitter(s *Store) *Committer {
	c := &Committer{
		s:          s,
		backoff:    100 * time.Millisecond,
		maxBackoff: 5 * time.Second,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go c.loop()
	return c
}

// SetBackoff overrides the retry delay bounds (initial delay, doubling
// per consecutive failure up to max).
func (c *Committer) SetBackoff(initial, max time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backoff, c.maxBackoff = initial, max
}

// Enqueue hands the committer a checkpoint covering segments at or
// below seq (the value Seal returned). A checkpoint already queued but
// not yet started is replaced — the newer image supersedes it.
// Enqueue never blocks.
func (c *Committer) Enqueue(cp *Checkpoint, seq uint64) {
	c.mu.Lock()
	c.pending = &commitReq{cp: cp, seq: seq}
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Stats returns the current queue counters.
func (c *Committer) Stats() CommitterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CommitterStats{
		Pending:   c.pending != nil || c.inflight,
		Committed: c.committed,
		Retries:   c.retries,
		LastError: c.lastErr,
	}
	if !c.lastErrAt.IsZero() {
		st.LastErrorUnix = c.lastErrAt.Unix()
	}
	return st
}

// Close stops the committer, waiting for an in-flight commit to finish
// (a commit is never torn by shutdown — CommitSealed either completes
// or leaves the old generation intact). A checkpoint still queued is
// dropped: its deltas are all fsynced in live segments, so the next
// boot replays them and loses nothing.
func (c *Committer) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// jitterDelay spreads a retry delay over [d/2, d), so a fleet of
// daemons failing on a shared fault (a full volume, a down primary)
// does not retry in lockstep and stampede whatever just recovered.
func jitterDelay(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(d-half)
}

func (c *Committer) loop() {
	defer close(c.done)
	failures := 0
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		for {
			c.mu.Lock()
			req := c.pending
			c.pending = nil
			c.inflight = req != nil
			c.mu.Unlock()
			if req == nil {
				break
			}
			err := c.s.CommitSealed(req.cp, req.seq)
			c.mu.Lock()
			c.inflight = false
			if errors.Is(err, errSuperseded) {
				// A newer checkpoint already covers this one: nothing
				// failed and nothing is left to retry.
				c.mu.Unlock()
				continue
			}
			if err == nil {
				c.committed++
				c.lastErr = ""
				c.lastErrAt = time.Time{}
				c.mu.Unlock()
				failures = 0
				continue
			}
			c.retries++
			c.lastErr = err.Error()
			c.lastErrAt = time.Now()
			// Re-enqueue the failed checkpoint unless a newer one
			// arrived while we were writing.
			if c.pending == nil {
				c.pending = req
			}
			delay, max := c.backoff, c.maxBackoff
			c.mu.Unlock()
			if delay <<= failures; delay > max || delay <= 0 {
				delay = max
			}
			delay = jitterDelay(delay)
			failures++
			select {
			case <-c.stop:
				return
			case <-time.After(delay):
			}
		}
	}
}
