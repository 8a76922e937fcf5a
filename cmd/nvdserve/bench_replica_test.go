package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/fsio"
	"nvdclean/internal/store"
)

// BENCH_8 harness: replication economics. The paper's daemon exists so
// nobody re-runs the cleaning pipeline; replication extends that claim
// across machines. BenchmarkFollowerCatchUp measures provisioning a
// replica over HTTP (manifest, verified checkpoint install, restore,
// tail replay) and is read against BenchmarkColdRestart from
// bench_store_test.go — the same fixture cleaned from scratch — for
// the catch-up-vs-re-clean ratio. BenchmarkFollowerSteadyStateLag
// measures how far behind a tailing replica runs under continuous
// primary ingest.

// BenchmarkFollowerBootstrap: one iteration = a cold machine becoming
// a serving replica of a freshly-compacted primary (checkpoint only,
// empty tail) — the pure replication machinery: manifest fetch,
// concurrent verified install, staged-checkpoint load, RestoreResult,
// serving swap, and the caught-up poll. This is the number to read
// against BenchmarkColdRestart for the ship-vs-re-clean ratio; tail
// replay on top of it costs whatever the deltas cost the primary at
// ingest (BenchmarkFollowerCatchUp below).
func BenchmarkFollowerBootstrap(b *testing.B) {
	restartFixture(b)
	psrv := newServer(restartWorld.opts)
	pStr, _, _ := openTestStore(b, psrv, b.TempDir(), fsio.OS{})
	if err := pStr.Commit(restartWorld.res.StoreCheckpoint()); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(psrv.handler())
	defer ts.Close()
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fStr, _, _, _, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		fsrv := newServer(restartWorld.opts)
		fsrv.attachStore(fStr)
		fol := newFollower(fsrv, ts.URL, time.Millisecond, 0)
		if err := fol.bootstrap(ctx); err != nil {
			b.Fatal(err)
		}
		for {
			wait, err := fol.syncOnce(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if wait > 0 {
				break
			}
		}
		st := fsrv.cur.Load()
		if st == nil || st.res.Cleaned.Len() != restartWorld.res.Cleaned.Len() {
			b.Fatalf("replica view incomplete: %v", st)
		}
		b.StopTimer()
		fsrv.closeStore()
		b.StartTimer()
	}
}

// BenchmarkFollowerCatchUp: one iteration = a cold machine becoming a
// serving replica. The primary holds the production-shaped (full zoo)
// checkpoint plus a sealed and an active tail segment, so the follower
// pays every phase: bootstrap install, RestoreResult, index build,
// sealed-segment replay with its local checkpoint, and the live tail.
func BenchmarkFollowerCatchUp(b *testing.B) {
	restartFixture(b)
	psrv := newServer(restartWorld.opts)
	pStr, _, _ := openTestStore(b, psrv, b.TempDir(), fsio.OS{})
	if err := pStr.Commit(restartWorld.res.StoreCheckpoint()); err != nil {
		b.Fatal(err)
	}
	// The tail holds modification deltas (description edits — the
	// daily-churn shape), which the fold warm-starts through the
	// trained engine. A tail with *added* entries would additionally
	// pay zoo retraining — that is ingest cost (BENCH_4), identical on
	// primary and follower, not replication cost.
	base := restartWorld.res.Original
	for i, seal := range []bool{true, false} {
		mod := base.Entries[i].Clone()
		mod.Descriptions[0].Value += " Advisory updated."
		d := &nvdclean.Delta{CapturedAt: base.CapturedAt.Add(time.Duration(i+1) * time.Hour), Modified: []*nvdclean.Entry{mod}}
		d.Sort()
		if err := pStr.AppendDelta(d); err != nil {
			b.Fatal(err)
		}
		if seal {
			if _, err := pStr.Seal(); err != nil {
				b.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(psrv.handler())
	defer ts.Close()
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fStr, _, _, _, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// Production shape: followers checkpoint their sealed segments
		// through the background commit queue, so time-to-serving does
		// not include the local commit. The queue drains between
		// iterations, off the clock — same protocol as
		// BenchmarkFeedIngestCompactBackground.
		fsrv := newServer(restartWorld.opts)
		fsrv.attachStore(fStr)
		fol := newFollower(fsrv, ts.URL, time.Millisecond, 0)
		if err := fol.bootstrap(ctx); err != nil {
			b.Fatal(err)
		}
		for {
			wait, err := fol.syncOnce(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if wait > 0 {
				break
			}
		}
		st := fsrv.cur.Load()
		if st == nil || st.res.Cleaned.Len() != restartWorld.res.Cleaned.Len() {
			b.Fatalf("replica view incomplete: %v", st)
		}
		if e := st.res.Cleaned.ByID(base.Entries[1].ID); e == nil || !strings.Contains(e.Descriptions[0].Value, "Advisory updated.") {
			b.Fatal("replica view missing the tail modifications")
		}
		b.StopTimer()
		fsrv.closeStore()
		b.StartTimer()
	}
}

// BenchmarkFollowerSteadyStateLag: a replica tails (1ms poll, via its
// background loop) while the primary ingests one delta per iteration
// through POST /feed, compacting every 8th. Each iteration measures
// acknowledged-write-to-replica-durable lag: from the primary's feed
// ack until the follower's log position reaches the primary's (the
// fold into the serving view completes inside the same apply hold).
// p50/max land in BENCH_8.json via ReportMetric.
func BenchmarkFollowerSteadyStateLag(b *testing.B) {
	benchState(b)
	opts, snap := benchWorld.opts, benchWorld.snap
	ctx := context.Background()

	// The primary boots from the shared fixture's checkpoint through the
	// production warm boot instead of paying a second full Clean.
	primary := newServer(opts)
	pStr, _, _ := openTestStore(b, primary, b.TempDir(), fsio.OS{})
	primary.compactEvery = 8
	cp := benchWorld.st.res.StoreCheckpoint()
	if err := pStr.Commit(cp); err != nil {
		b.Fatal(err)
	}
	if _, err := primary.advance(ctx, transition{cp: cp}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()

	fsrv := newServer(opts)
	fStr, _, _ := openTestStore(b, fsrv, b.TempDir(), fsio.OS{})
	fol := newFollower(fsrv, ts.URL, time.Millisecond, 0)
	fsrv.follower = fol
	fctx, fcancel := context.WithCancel(ctx)
	go fol.run(fctx)
	defer func() { fcancel(); <-fol.done }()

	// Let the replica bootstrap before the clock starts.
	for start := time.Now(); fsrv.cur.Load() == nil; {
		if time.Since(start) > time.Minute {
			b.Fatal("replica never bootstrapped")
		}
		time.Sleep(time.Millisecond)
	}

	caughtUp := func() bool {
		pSeq, pOff := pStr.LastPosition()
		fSeq, fOff := fStr.LastPosition()
		return fSeq > pSeq || (fSeq == pSeq && fOff >= pOff)
	}
	lags := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := snap.Entries[i%5].Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" steady-state %d", i)
		body := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Minute), Entries: []*nvdclean.Entry{mod}}
		var buf bytes.Buffer
		if err := nvdclean.WriteFeed(&buf, body); err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("POST /feed %d = %d", i, resp.StatusCode)
		}
		acked := time.Now()
		for !caughtUp() {
			if time.Since(acked) > 30*time.Second {
				b.Fatal("replica stalled")
			}
			time.Sleep(100 * time.Microsecond)
		}
		lags = append(lags, time.Since(acked))
	}
	b.StopTimer()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	b.ReportMetric(float64(lags[len(lags)/2].Nanoseconds()), "p50-lag-ns")
	b.ReportMetric(float64(lags[len(lags)-1].Nanoseconds()), "max-lag-ns")
}
