package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nvdclean/internal/fsio"
	"nvdclean/internal/gen"
	"nvdclean/internal/replica"
)

// TestFollowerSurvivesPrimaryOutage subjects the replication path to
// injected network faults: the follower bootstraps through connection
// resets, keeps serving its last generation byte-identically through a
// hard primary outage (5xx storm, then torn bodies), stays in the read
// pool, and reconverges on its own once the primary returns.
func TestFollowerSurvivesPrimaryOutage(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	ctx := context.Background()

	primary := newServer(opts)
	pStr, _, _ := openTestStore(t, primary, t.TempDir(), fsio.OS{})
	primary.compactEvery = 1000
	coldBoot(t, primary, snap)
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()
	postFeed(t, ts, feedUpdate(t, snap))

	fsrv := newServer(opts)
	fStr, _, _ := openTestStore(t, fsrv, t.TempDir(), fsio.OS{})
	fol := newFollower(fsrv, ts.URL, 10*time.Millisecond, 15*time.Second)
	fsrv.follower = fol
	ft := &replica.FaultTransport{}
	fol.client.SetTransport(ft)
	fol.client.SetRetry(3, time.Millisecond)
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()

	// Bootstrap through transient connection resets: the client's
	// internal retries absorb them without surfacing an error.
	ft.SetDecide(replica.FaultFirst(2, replica.Fault{Err: syscall.ECONNRESET}))
	if err := fol.bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap through resets: %v", err)
	}
	catchUp(t, ctx, fol)
	if ft.Injected() < 2 {
		t.Fatalf("transport injected %d faults, want >= 2", ft.Injected())
	}
	assertConverged(t, "bootstrap through resets", primary, fsrv)

	cveID := fsrv.cur.Load().res.Cleaned.Entries[0].ID
	stBase, cveBase := getBody(t, fts, "/cve/"+cveID)
	if stBase != 200 {
		t.Fatalf("baseline follower GET /cve = %d", stBase)
	}

	// The primary "goes down": every replication request 5xxes. It
	// still takes writes from its own clients, so the follower is now
	// genuinely stale.
	ft.SetDecide(replica.FaultAll(replica.Fault{Status: http.StatusServiceUnavailable}))
	postFeed(t, ts, namedUpdate(t, snap, "CVE-2018-5555"))
	errsBefore := fol.fetchErrors.Load()
	if _, err := fol.syncOnce(ctx); err == nil {
		t.Fatal("poll through a hard outage did not error")
	}
	if fol.fetchErrors.Load() == errsBefore {
		t.Fatal("failed poll did not count as a fetch error")
	}

	// Stale-with-lag serving: reads answer the last good generation
	// byte-identically, readiness holds (lag is within -max-replica-lag),
	// and /stats names the fetch error.
	if st, b := getBody(t, fts, "/cve/"+cveID); st != 200 || !bytes.Equal(b, cveBase) {
		t.Fatalf("follower read changed during outage: status %d, identical %v", st, bytes.Equal(b, cveBase))
	}
	var probe map[string]any
	if code := getJSON(t, fts, "/readyz", &probe); code != http.StatusOK {
		t.Fatalf("follower /readyz during outage = %d, want 200", code)
	}
	var stats map[string]any
	if code := getJSON(t, fts, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("follower /stats = %d", code)
	}
	repl := stats["replication"].(map[string]any)
	if repl["lastFetchError"] == nil || repl["lastFetchError"] == "" {
		t.Fatalf("outage not visible in /stats replication block: %v", repl)
	}

	// Torn transfers: responses cut off mid-body must surface as fetch
	// errors, never as partially applied stream bytes.
	ft.SetDecide(replica.FaultAll(replica.Fault{TruncateBody: 8}))
	posBefore, offBefore := fStr.ActivePosition()
	if _, err := fol.syncOnce(ctx); err == nil {
		t.Fatal("truncated log body did not error")
	}
	if pos, off := fStr.ActivePosition(); pos != posBefore || off != offBefore {
		t.Fatal("cursor moved on a truncated fetch")
	}

	// The primary returns; the follower reconverges with no operator
	// intervention and the fleet's stream positions realign.
	ft.SetDecide(nil)
	catchUp(t, ctx, fol)
	assertConverged(t, "post-outage reconvergence", primary, fsrv)
	pSeq, pOff := pStr.LastPosition()
	fSeq, fOff := fStr.LastPosition()
	if pSeq != fSeq || pOff != fOff {
		t.Fatalf("positions diverge after reconvergence: primary (%d,%d) follower (%d,%d)", pSeq, pOff, fSeq, fOff)
	}
}

// TestFollowerResumesAfterFailedSeal fails a mirrored seal after the
// follower's store has already switched to the successor segment: the
// directory sync that follows the successor's creation errors once.
// The follower's cursor is its store's position, so the next poll
// tails the primary's successor segment from its start instead of
// sealing its own empty successor and skipping a segment of deltas.
func TestFollowerResumesAfterFailedSeal(t *testing.T) {
	snap, opts := world(t, gen.TinyConfig())
	opts.Concurrency = 8
	ctx := context.Background()

	primary := newServer(opts)
	pStr, _, _ := openTestStore(t, primary, t.TempDir(), fsio.OS{})
	primary.compactEvery = 1000
	coldBoot(t, primary, snap)
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()
	postFeed(t, ts, namedUpdate(t, snap, "CVE-2018-6001"))

	fsrv := newServer(opts)
	inj := fsio.NewInjector(fsio.OS{})
	fdir := t.TempDir()
	fStr, _, _ := openTestStore(t, fsrv, fdir, inj)
	fol := newFollower(fsrv, ts.URL, 10*time.Millisecond, 0)
	fsrv.follower = fol
	if err := fol.bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	catchUp(t, ctx, fol)

	seq, _ := fStr.ActivePosition()
	successor := filepath.Join(fdir, fmt.Sprintf("log-%06d", seq+1))
	var opened, failed atomic.Bool
	inj.SetDecide(func(op fsio.Op) fsio.Decision {
		switch {
		case op.Kind == fsio.OpOpenFile && op.Path == successor:
			opened.Store(true)
		case op.Kind == fsio.OpSync && op.Path == fdir && opened.Load() && failed.CompareAndSwap(false, true):
			return fsio.Decision{Err: syscall.EIO}
		}
		return fsio.Decision{}
	})

	// The primary seals without committing, so the sealed segment stays
	// in its stream, and logs one more delta into the successor.
	if _, err := pStr.Seal(); err != nil {
		t.Fatal(err)
	}
	postFeed(t, ts, namedUpdate(t, snap, "CVE-2018-6002"))
	if _, err := fol.syncOnce(ctx); err == nil {
		t.Fatal("poll through a failed mirrored seal did not error")
	}
	if !failed.Load() {
		t.Fatal("the mirrored seal's directory sync was never reached")
	}
	catchUp(t, ctx, fol)
	assertConverged(t, "after a failed mirrored seal", primary, fsrv)
}
