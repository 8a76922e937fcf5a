package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nvdclean"
)

// TestRaceReadDuringFeedSwap hammers the cached read path — /cve/{id}
// and /query, mixing fresh and If-None-Match requests — while POST
// /feed swaps generations underneath. The stress invariants, checked
// on every response:
//
//   - one validator, one body: two 200s carrying the same ETag are
//     byte-identical, even when one was rendered before a swap and the
//     other served from a seeded cache after it;
//   - a 304 echoes exactly the validator the client presented;
//   - a validator from generation N never 304s once generation N+1
//     serves (checked deterministically after every swap);
//   - after the last swap the served body carries the last update's
//     marker — no stale cached bytes survive a swap that touched the
//     entry.
//
// Run under -race this also proves the cache fill (singleflight
// encode, seeded map) and the LRU are sound against the swap.
func TestRaceReadDuringFeedSwap(t *testing.T) {
	snap, opts := raceWorld(t)
	srv := newServer(opts)
	coldBoot(t, srv, snap)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	target := snap.Entries[0].ID
	paths := []string{"/cve/" + target, "/cve/" + snap.Entries[1].ID, "/query?severity=HIGH&limit=50"}

	// bodies maps ETag -> first body bytes observed under it; every
	// later 200 with the same validator must match. Keys are
	// etag + "\x00" + path because different resources share one
	// generation validator.
	var bodies sync.Map
	var raceErr sync.Map // goroutine id -> error
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastTag := make(map[string]string) // path -> last validator seen
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(g+i)%len(paths)]
				req, err := http.NewRequest("GET", ts.URL+path, nil)
				if err != nil {
					raceErr.Store(g, err)
					return
				}
				conditional := i%2 == 1 && lastTag[path] != ""
				if conditional {
					req.Header.Set("If-None-Match", lastTag[path])
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					continue // server shutting down
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				etag := resp.Header.Get("ETag")
				switch resp.StatusCode {
				case http.StatusOK:
					if etag == "" {
						raceErr.Store(g, fmt.Errorf("%s: 200 without validator", path))
						return
					}
					key := etag + "\x00" + path
					if prev, loaded := bodies.LoadOrStore(key, body); loaded && !bytes.Equal(prev.([]byte), body) {
						raceErr.Store(g, fmt.Errorf("%s: two bodies under validator %s", path, etag))
						return
					}
					lastTag[path] = etag
				case http.StatusNotModified:
					if !conditional {
						raceErr.Store(g, fmt.Errorf("%s: 304 for unconditional request", path))
						return
					}
					if len(body) != 0 || etag != lastTag[path] {
						raceErr.Store(g, fmt.Errorf("%s: 304 body=%d etag=%q (sent %q)", path, len(body), etag, lastTag[path]))
						return
					}
				default:
					raceErr.Store(g, fmt.Errorf("%s: status %d", path, resp.StatusCode))
					return
				}
			}
		}(g)
	}

	// Serial ingests from the main goroutine, each modifying the target
	// entry, so every swap invalidates bytes the readers are hammering.
	const posts = 5
	var marker string
	for i := 0; i < posts; i++ {
		_, prevHdr, _ := getRaw(t, ts, "/cve/"+target, "")
		prevTag := prevHdr.Get("ETag")

		mod := srv.cur.Load().res.Original.Entries[0].Clone()
		if mod.ID != target {
			t.Fatalf("original entry order changed: %s", mod.ID)
		}
		marker = fmt.Sprintf("swap marker %d.", i)
		mod.Descriptions[0].Value += " " + marker
		postFeed(t, ts, &nvdclean.Snapshot{
			CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Hour),
			Entries:    []*nvdclean.Entry{mod},
		})

		// The swapped generation must never 304 a stale validator.
		code, h, body := getRaw(t, ts, "/cve/"+target, prevTag)
		if code != http.StatusOK {
			t.Fatalf("post %d: stale validator %s got %d, want full 200", i, prevTag, code)
		}
		if h.Get("ETag") == prevTag {
			t.Fatalf("post %d: validator did not rotate", i)
		}
		if !bytes.Contains(body, []byte(marker)) {
			t.Fatalf("post %d: swapped body is stale (missing %q)", i, marker)
		}
	}
	close(stop)
	wg.Wait()
	raceErr.Range(func(g, err any) bool {
		t.Errorf("reader %v: %v", g, err)
		return true
	})

	// Final serving state: fresh read reflects the last update.
	if _, _, body := getRaw(t, ts, "/cve/"+target, ""); !bytes.Contains(body, []byte(marker)) {
		t.Fatalf("final body missing %q", marker)
	}
}
