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
	"nvdclean/internal/store"
)

// TestRaceFeedDuringENOSPCFlaps is the fault-injection race stress:
// readers hammer /cve, /query, /readyz, /stats and /metrics while the
// store's filesystem flaps between healthy and ENOSPC under concurrent
// POST /feed traffic. Every degraded transition, probe-driven
// recovery, health scrape and generation swap races every reader; the
// -race build must stay silent, reads must never fail, writes must
// answer only 200/503/507, and when the dust settles the daemon must
// be recovered, consistent, and cleanly reopenable.
func TestRaceFeedDuringENOSPCFlaps(t *testing.T) {
	dir := t.TempDir()
	snap, opts := raceWorld(t)
	srv := newServer(opts)
	inj := fsio.NewInjector(fsio.OS{})
	openTestStore(t, srv, dir, inj)
	srv.compactEvery = 2
	srv.committer.SetBackoff(time.Millisecond, 10*time.Millisecond)
	srv.health.probeInitial = time.Millisecond
	srv.health.probeMax = 5 * time.Millisecond
	coldBoot(t, srv, snap)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	cveID := srv.cur.Load().res.Cleaned.Entries[0].ID
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: the degraded flag must never leak into the read path.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/cve/" + cveID, "/query?limit=3", "/readyz", "/stats", "/metrics"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range paths {
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						continue // listener teardown race at test end
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("GET %s = %d under fault flaps", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}

	// The fault flapper: ENOSPC storms alternating with calm, racing
	// the probe loop, the committer's retries, and every writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				inj.SetDecide(nil)
				return
			default:
			}
			if i%2 == 0 {
				inj.SetDecide(enospcDecider)
			} else {
				inj.SetDecide(nil)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Writers: posts race the flapper, so any of healthy (200),
	// degraded-up-front or append-failed (503/507) can happen — but
	// nothing else, and never a torn response.
	const posts = 12
	accepted := 0
	for i := 0; i < posts; i++ {
		mod := snap.Entries[i%5].Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" fault flap %d", i)
		body := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Hour), Entries: []*nvdclean.Entry{mod}}
		var buf bytes.Buffer
		if err := nvdclean.WriteFeed(&buf, body); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			accepted++
		case 503, 507:
			// rejected while degraded — the fault was live
		default:
			t.Fatalf("POST /feed %d = %d (want 200, 503 or 507)", i, resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Fault cleared: the probe must bring the daemon back on its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if degraded, _, _ := srv.health.isDegraded(); !degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon stuck degraded after the flapping stopped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// One more write must land end to end.
	mod := snap.Entries[7].Clone()
	mod.Descriptions[0].Value += " post-recovery"
	body := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt.Add(100 * time.Hour), Entries: []*nvdclean.Entry{mod}}
	var buf bytes.Buffer
	if err := nvdclean.WriteFeed(&buf, body); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery POST /feed = %d", resp.StatusCode)
	}
	accepted++
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}

	// The surviving directory is consistent: it reopens cleanly and
	// replaying its recovered checkpoint plus deltas reconstructs
	// exactly the snapshot the daemon last acknowledged — every 200'd
	// write durable, no rejected write leaked in, disk never behind
	// memory.
	st2, cp2, deltas, _, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen after fault storm: %v", err)
	}
	defer st2.Close()
	if cp2 == nil {
		t.Fatal("no checkpoint survived the fault storm")
	}
	if accepted == 0 {
		t.Fatal("no write was ever accepted — the flapper starved the test")
	}
	recovered := cp2.Original
	for _, d := range deltas {
		recovered = recovered.ApplyDelta(d)
	}
	var recoveredBytes, servedBytes bytes.Buffer
	if err := nvdclean.WriteFeed(&recoveredBytes, recovered); err != nil {
		t.Fatal(err)
	}
	if err := nvdclean.WriteFeed(&servedBytes, srv.cur.Load().res.Original); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recoveredBytes.Bytes(), servedBytes.Bytes()) {
		t.Fatalf("recovered store diverges from the served snapshot (%d vs %d bytes)",
			recoveredBytes.Len(), servedBytes.Len())
	}
	if degraded, reason, _ := srv.health.isDegraded(); degraded {
		t.Fatalf("still degraded after recovery: %s", reason)
	}
}
