package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/fsio"
)

// TestRaceReplicaTailDuringCompaction stresses the replication stream's
// concurrency surface: a follower tails a primary whose every ingest
// seals a segment and enqueues a background checkpoint (compactEvery=1),
// so the follower's reads race seals, commits, and segment retirement —
// forcing live 410 re-bootstraps — while its own readers race the fold
// swaps. Afterwards the follower, drained synchronously, must converge
// to the primary's exact serving view.
func TestRaceReplicaTailDuringCompaction(t *testing.T) {
	snap, opts := raceWorld(t)
	primary := newServer(opts)
	pStr, _, _ := openTestStore(t, primary, t.TempDir(), fsio.OS{})
	primary.compactEvery = 1
	coldBoot(t, primary, snap)
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()

	fsrv := newServer(opts)
	fStr, _, _ := openTestStore(t, fsrv, t.TempDir(), fsio.OS{})
	fol := newFollower(fsrv, ts.URL, 5*time.Millisecond, 0)
	fsrv.follower = fol
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()

	fctx, fcancel := context.WithCancel(context.Background())
	go fol.run(fctx)

	// Readers hammer the follower while folds swap generations under it.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/query?severity=HIGH", "/stats", "/readyz"} {
					if resp, err := fts.Client().Get(fts.URL + path); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Sequential compacting ingests on the primary: each one seals the
	// follower's cursor segment and soon retires it.
	const posts = 6
	for i := 0; i < posts; i++ {
		mod := snap.Entries[i%3].Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" replica race %d", i)
		body := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Hour), Entries: []*nvdclean.Entry{mod}}
		var buf bytes.Buffer
		if err := nvdclean.WriteFeed(&buf, body); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST /feed %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	close(stop)
	wg.Wait()
	fcancel()
	<-fol.done

	// The primary takes no more writes, but its committer may still be
	// writing: a commit landing between a bootstrap's manifest fetch and
	// its file fetches would ship one generation's bytes against the
	// other's sums. Once it is idle the primary is quiescent; drain the
	// follower synchronously to the stream's committed end and compare
	// views.
	commitIdle(t, primary)
	ctx := context.Background()
	for i := 0; fsrv.cur.Load() == nil; i++ {
		if i > 20 {
			t.Fatal("follower never bootstrapped")
		}
		if err := fol.bootstrap(ctx); err != nil {
			t.Logf("bootstrap retry: %v", err)
		}
	}
	catchUp(t, ctx, fol)
	// Positions either match exactly, or the follower re-bootstrapped
	// from a checkpoint covering the primary's whole log and parks at
	// the empty successor segment — same content, one boundary apart.
	pSeq, pOff := pStr.LastPosition()
	fSeq, fOff := fStr.LastPosition()
	if !(pSeq == fSeq && pOff == fOff) && !(fSeq == pStr.Watermark()+1 && fOff == 0) {
		t.Fatalf("positions diverge after the race: primary (%d,%d) watermark %d, follower (%d,%d)",
			pSeq, pOff, pStr.Watermark(), fSeq, fOff)
	}
	assertConverged(t, "post-race", primary, fsrv)
}
