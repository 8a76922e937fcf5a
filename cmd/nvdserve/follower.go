package main

// Follower mode (-follow): this daemon is a read replica of one
// primary nvdserve. It bootstraps by installing the primary's shipped
// checkpoint into its own store, restores a serving generation from
// it, and then tails the primary's segment bytes — appending them
// verbatim to its local log (so stream positions, and therefore ETag
// validators, align across the fleet) and folding the decoded deltas
// into its serving view through the same generation transition
// (advance) POST /feed uses on the primary.
//
// Convergence: followers never coordinate with the primary beyond
// polling its stream. When a follower falls behind a compaction (its
// cursor's segment is retired — HTTP 410), it re-bootstraps from the
// primary's latest checkpoint: periodic state broadcast rather than
// lock-step replication, so an arbitrarily late or freshly provisioned
// replica converges in one checkpoint fetch plus a bounded tail.

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nvdclean"
	"nvdclean/internal/replica"
	"nvdclean/internal/store"
)

type follower struct {
	srv    *server
	client *replica.Client
	// poll is the wait after an active-segment read and the retry delay
	// after a failure; at the primary's committed end the primary's
	// Retry-After wins when it is longer. maxLag is the /readyz gate (0
	// disables gating).
	poll   time.Duration
	maxLag time.Duration

	// unapplied holds deltas durably appended to the local log but not
	// yet folded into the serving view (a fold interrupted by shutdown
	// leaves them pending); the next successful fold drains them.
	// Guarded by srv.feedMu.
	unapplied []*nvdclean.Delta

	// caughtUpAt is the unix-nano time of the last poll that confirmed
	// the follower holds every committed byte the primary had; 0 until
	// the first confirmation. Lag is measured from it.
	caughtUpAt    atomic.Int64
	fetches       atomic.Uint64
	fetchErrors   atomic.Uint64
	fetchBytes    atomic.Uint64
	deltasApplied atomic.Uint64
	bootstraps    atomic.Uint64
	lastErr       atomic.Value // string; "" when the last poll succeeded

	// done closes when run returns, so shutdown can join the tail loop
	// before the committer and store close underneath it.
	done chan struct{}
}

func newFollower(srv *server, primary string, poll, maxLag time.Duration) *follower {
	return &follower{
		srv:    srv,
		client: replica.NewClient(primary),
		poll:   poll,
		maxLag: maxLag,
		done:   make(chan struct{}),
	}
}

// lag returns the time since the follower last confirmed it was caught
// up with the primary's committed stream end; ok is false before the
// first confirmation (lag is unknown, not zero).
func (f *follower) lag() (time.Duration, bool) {
	at := f.caughtUpAt.Load()
	if at == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, at)), true
}

// statsBlock is the follower's /stats replication block.
func (f *follower) statsBlock() map[string]any {
	seq, off := f.srv.persist.ActivePosition()
	b := map[string]any{
		"role":          "follower",
		"primary":       f.client.Base(),
		"cursorSegment": seq,
		"cursorOffset":  off,
		"watermark":     f.srv.persist.Watermark(),
		"fetches":       f.fetches.Load(),
		"fetchErrors":   f.fetchErrors.Load(),
		"fetchBytes":    f.fetchBytes.Load(),
		"deltasApplied": f.deltasApplied.Load(),
		"bootstraps":    f.bootstraps.Load(),
		"synced":        false,
		"lagSeconds":    -1.0,
	}
	if lag, ok := f.lag(); ok {
		b["synced"] = true
		b["lagSeconds"] = lag.Seconds()
	}
	if e, _ := f.lastErr.Load().(string); e != "" {
		b["lastFetchError"] = e
	}
	return b
}

// run is the replica lifecycle: bootstrap until a generation serves,
// then tail forever. It only returns when ctx is cancelled.
func (f *follower) run(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil && f.srv.cur.Load() == nil {
		if err := f.bootstrap(ctx); err != nil {
			f.fetchErrors.Add(1)
			f.lastErr.Store(err.Error())
			fmt.Printf("nvdserve: replica bootstrap: %v\n", err)
			// Jittered: a fleet of replicas booting against a down
			// primary must not hammer it in lockstep when it returns.
			if !sleepCtx(ctx, jitter(f.poll)) {
				return
			}
			continue
		}
	}
	for ctx.Err() == nil {
		wait, err := f.syncOnce(ctx)
		if err != nil && ctx.Err() == nil {
			fmt.Printf("nvdserve: replica sync: %v\n", err)
			// Failed polls back off with jitter so a primary outage
			// does not synchronize the fleet's retry schedule.
			wait = jitter(wait)
		}
		if wait <= 0 {
			continue
		}
		if !sleepCtx(ctx, wait) {
			return
		}
	}
}

// bootstrap installs the primary's current checkpoint into the local
// store (re-verified file by file), which parks the store's active
// segment — the stream cursor — at the watermark's successor, and
// restores a serving generation from it. It is both the cold-start
// path and the catch-up path after a 410.
func (f *follower) bootstrap(ctx context.Context) error {
	rm, err := f.client.Manifest(ctx)
	if err != nil {
		return err
	}
	cp, err := f.srv.persist.InstallCheckpoint(rm, func(mf store.ManifestFile) (io.ReadCloser, error) {
		return f.client.CheckpointFile(ctx, mf)
	})
	if err != nil {
		return err
	}
	f.srv.feedMu.Lock()
	out, err := f.srv.advance(ctx, transition{cp: cp})
	// Anything pending was folded into the shipped checkpoint (the
	// install refuses a local log ahead of its watermark).
	f.unapplied = nil
	f.srv.feedMu.Unlock()
	if err != nil {
		return fmt.Errorf("restoring shipped checkpoint: %w", err)
	}
	f.bootstraps.Add(1)
	fmt.Printf("nvdserve: replica bootstrapped from %s: generation %d (%d entries), tailing from segment %d\n",
		f.client.Base(), f.srv.persist.Generation(), out.st.res.Cleaned.Len(), rm.CheckpointSeq+1)
	return nil
}

// syncOnce runs one poll of the stream: fetch bytes at the cursor,
// append them durably, fold the decoded deltas into the serving view,
// and mirror the primary's seal boundaries. The cursor is the local
// store's active position, so it moves only with what the store holds:
// a failed append leaves it, and a seal that switched segments before
// failing moves it. It returns how long the caller should wait before
// the next poll — zero when the stream yielded progress and more may
// be pending immediately.
func (f *follower) syncOnce(ctx context.Context) (time.Duration, error) {
	seq, off := f.srv.persist.ActivePosition()
	chunk, err := f.client.Log(ctx, seq, off)
	if err != nil {
		f.fetchErrors.Add(1)
		f.lastErr.Store(err.Error())
		return f.poll, err
	}
	f.fetches.Add(1)
	switch {
	case chunk.Retired:
		// The primary compacted past the cursor: re-bootstrap from its
		// latest checkpoint — the periodic-state-broadcast path.
		if err := f.bootstrap(ctx); err != nil {
			f.fetchErrors.Add(1)
			f.lastErr.Store(err.Error())
			return f.poll, err
		}
		f.lastErr.Store("")
		return 0, nil
	case chunk.AtWatermark:
		f.caughtUpAt.Store(time.Now().UnixNano())
		f.lastErr.Store("")
		wait := f.poll
		if chunk.RetryAfter > wait {
			wait = chunk.RetryAfter
		}
		return wait, nil
	}
	f.fetchBytes.Add(uint64(len(chunk.Data)))
	if err := f.apply(ctx, chunk); err != nil {
		f.lastErr.Store(err.Error())
		return f.poll, err
	}
	f.lastErr.Store("")
	if !chunk.Sealed {
		// An active-segment read returns every committed byte the
		// primary had at fetch time, so a successful apply means the
		// follower is caught up as of that moment.
		f.caughtUpAt.Store(time.Now().UnixNano())
		return f.poll, nil
	}
	return 0, nil
}

// apply lands one fetched chunk: frames append verbatim to the local
// log (advancing the shared stream position), then one transition
// folds every unapplied delta into the serving view and, when the
// chunk ends a sealed segment, mirrors the seal locally — keeping
// segment seqs in lockstep with the primary — and checkpoints, so this
// replica's restarts (and its own followers, if chained) stay cheap.
// Folding N deltas in one CleanDelta is safe because CleanDelta is
// bit-deterministic and composition-invariant: the follower's view
// converges to the primary's however the stream was chunked.
func (f *follower) apply(ctx context.Context, chunk *replica.LogChunk) error {
	f.srv.feedMu.Lock()
	defer f.srv.feedMu.Unlock()
	if len(chunk.Data) > 0 {
		deltas, err := f.srv.persist.AppendFrames(chunk.Data)
		if err != nil {
			return err
		}
		f.unapplied = append(f.unapplied, deltas...)
	}
	st := f.srv.cur.Load()
	if st == nil {
		return fmt.Errorf("no serving generation to fold deltas into")
	}
	out, err := f.srv.advance(ctx, transition{delta: mergeDeltas(st.res.Original, f.unapplied), sealed: chunk.Sealed})
	if err != nil {
		// The frames are durable and the cursor advanced; the fold
		// retries on the next poll (or a restart replays the log).
		return err
	}
	f.deltasApplied.Add(uint64(len(f.unapplied)))
	f.unapplied = nil
	return out.compactErr
}

// sleepCtx sleeps d unless ctx ends first; it reports whether the
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
