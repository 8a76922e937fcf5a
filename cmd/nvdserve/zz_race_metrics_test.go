package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/fsio"
)

// TestRaceMetricsScrapeDuringFeed hammers GET /metrics (which samples
// store, committer, index, and generation state through scrape-time
// closures) concurrently with generation swaps and background commits:
// every POST /feed trips compaction (compactEvery=1), so scrapes race
// segment seals, queue handoffs, and the committer's checkpoint writes.
// The scrape output itself must stay well-formed under the race — the
// final body goes through the full format parser.
func TestRaceMetricsScrapeDuringFeed(t *testing.T) {
	snap, opts := raceWorld(t)
	srv := newServer(opts)
	openTestStore(t, srv, t.TempDir(), fsio.OS{})
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
				for _, path := range []string{"/metrics", "/stats", "/readyz"} {
					if resp, err := ts.Client().Get(ts.URL + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	const posts = 4
	for i := 0; i < posts; i++ {
		mod := snap.Entries[i%3].Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" scrape race %d", i)
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
	commitIdle(t, srv)

	// After the dust settles the scrape must still be a valid
	// exposition reflecting everything that happened: all swaps in the
	// ingest histogram, the checkpoint observer fired, gauges sampling
	// the final state.
	fams := scrape(t, ts)
	if got := histCount("nvdserve_ingest_swap_seconds", fams["nvdserve_ingest_swap_seconds"]); got != posts {
		t.Errorf("ingest swap count = %g, want %d", got, posts)
	}
	if got := histCount("nvdserve_store_checkpoint_seconds", fams["nvdserve_store_checkpoint_seconds"]); got < 1 {
		t.Errorf("checkpoint histogram never observed a commit (count %g)", got)
	}
	if v := fams["nvdserve_generation_sequence"].samples[0].value; v != posts+1 {
		t.Errorf("generation sequence = %g, want %d", v, posts+1)
	}
	if v := fams["nvdserve_store_commit_queue_depth"].samples[0].value; v != 0 {
		t.Errorf("commit queue depth after drain = %g, want 0", v)
	}
}
