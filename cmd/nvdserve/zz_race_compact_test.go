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
	"nvdclean/internal/store"
)

// TestRaceFeedDuringBackgroundCommit is the commit-queue stress test:
// every POST /feed trips compaction (compactEvery=1), so each ingest
// seals a segment and enqueues a checkpoint while the previous
// background commit may still be writing — all under concurrent /query
// and /stats readers. Afterwards the store must reopen to exactly the
// serving view: whatever mix of committed checkpoints and live
// segments the race left behind, no acknowledged delta is lost.
func TestRaceFeedDuringBackgroundCommit(t *testing.T) {
	dir := t.TempDir()
	snap, opts := raceWorld(t)
	srv := newServer(opts)
	openTestStore(t, srv, dir, fsio.OS{})
	srv.compactEvery = 1
	coldBoot(t, srv, snap)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

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
				for _, path := range []string{"/query?severity=HIGH", "/stats"} {
					if resp, err := ts.Client().Get(ts.URL + path); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Sequential ingests, each modifying one entry: every one seals
	// and enqueues while the committer races the successor appends.
	const posts = 5
	for i := 0; i < posts; i++ {
		mod := snap.Entries[i%3].Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" race update %d", i)
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

	// Drain the queue (closeStore waits for an in-flight commit) and
	// prove the store reopens to the serving view: the production warm
	// boot of the restored checkpoint plus replayed segments == what the
	// server was serving when it stopped.
	want := srv.cur.Load().res
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	st2, cp, logged, notes, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatalf("no checkpoint after %d compacting ingests (notes %v)", posts, notes)
	}
	warm := newServer(opts)
	warm.attachStore(st2)
	defer warm.closeStore()
	restored, err := warm.advance(context.Background(), transition{cp: cp, delta: mergeDeltas(cp.Original, logged)})
	if err != nil {
		t.Fatal(err)
	}
	res := restored.st.res
	if res.Cleaned.Len() != want.Cleaned.Len() {
		t.Fatalf("restored %d entries, want %d", res.Cleaned.Len(), want.Cleaned.Len())
	}
	for i, e := range want.Cleaned.Entries {
		if !e.Equal(res.Cleaned.Entries[i]) {
			t.Fatalf("restored entry %d (%s) differs from the serving view", i, e.ID)
		}
	}
}
