package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// daemonOptions are the cleaning options nvdserve runs with by default
// (-models LR, compact models, seed 1, no crawl for a -feed input). The
// in-process oracle and the traced replay must use the same options or
// CleanDelta's engine warm start and bit-identity no longer apply.
func daemonOptions() nvdclean.Options {
	return nvdclean.Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Compact: true, Seed: 1},
		Seed:        1,
	}
}

// upsert returns the delta POST /feed builds for posted entries: new IDs
// are added, changed ones modified, nothing removed.
func upsert(byID map[string]*cve.Entry, posted []*cve.Entry) *cve.Delta {
	d := &cve.Delta{}
	for _, e := range posted {
		switch prev := byID[e.ID]; {
		case prev == nil:
			d.Added = append(d.Added, e)
		case !prev.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	d.Sort()
	return d
}

// expectedFeed is base with every acknowledged post applied in order:
// the feed the daemon must have durably accepted.
func expectedFeed(base *cve.Snapshot, acked []post) *cve.Snapshot {
	byID := make(map[string]*cve.Entry, base.Len())
	for _, e := range base.Entries {
		byID[e.ID] = e
	}
	cur := base
	for _, p := range acked {
		cur = cur.ApplyDelta(upsert(byID, p.entries))
		for _, e := range p.entries {
			byID[e.ID] = e
		}
	}
	return cur
}

// checkRecovery is the repository's warm-restart oracle run against a
// killed daemon's data directory: the store must reopen to exactly the
// acknowledged feed, and restoring it (checkpoint, then CleanDelta of
// the logged deltas) must clean every entry exactly as a cold Clean of
// that feed does.
func checkRecovery(ctx context.Context, dataDir string, want *cve.Snapshot) error {
	opts := daemonOptions()
	st, cp, logged, _, err := store.Open(dataDir)
	if err != nil {
		return fmt.Errorf("reopening the killed daemon's store: %w", err)
	}
	defer st.Close()
	if cp == nil {
		return fmt.Errorf("killed daemon's store has no checkpoint")
	}
	warm, err := nvdclean.RestoreResult(cp, opts)
	if err != nil {
		return err
	}
	merged := warm.Original
	for _, d := range logged {
		merged = merged.ApplyDelta(d)
	}
	if total := nvdclean.Diff(warm.Original, merged); !total.Empty() {
		if warm, err = nvdclean.CleanDelta(ctx, warm, total, opts); err != nil {
			return err
		}
	}
	if d := nvdclean.Diff(want, warm.Original); !d.Empty() {
		return fmt.Errorf("recovered feed differs from the acknowledged one: %d added, %d modified, %d removed",
			len(d.Added), len(d.Modified), len(d.Removed))
	}
	cold, err := nvdclean.Clean(ctx, want, opts)
	if err != nil {
		return err
	}
	nvdclean.ApplyBackport(warm.Cleaned, warm.Backport)
	nvdclean.ApplyBackport(cold.Cleaned, cold.Backport)
	if warm.Cleaned.Len() != cold.Cleaned.Len() {
		return fmt.Errorf("recovered %d cleaned entries, cold Clean has %d", warm.Cleaned.Len(), cold.Cleaned.Len())
	}
	for i, e := range cold.Cleaned.Entries {
		if !e.Equal(warm.Cleaned.Entries[i]) {
			return fmt.Errorf("recovered cleaned entry %s differs from a cold Clean", e.ID)
		}
	}
	if !maps.Equal(warm.VendorChanged, cold.VendorChanged) || !maps.Equal(warm.ProductChanged, cold.ProductChanged) {
		return fmt.Errorf("recovered consolidation marks differ from a cold Clean")
	}
	if (warm.Backport == nil) != (cold.Backport == nil) ||
		(warm.Backport != nil && !maps.Equal(warm.Backport.Scores, cold.Backport.Scores)) {
		return fmt.Errorf("recovered backported scores differ from a cold Clean")
	}
	return nil
}

// checkReplica compares what the primary and the follower serve for
// every posted ID and 500 seeded base IDs: same status, validator and
// bytes. It first waits for the follower to reach the primary's
// position (its validator for a posted entry matches the primary's).
func checkReplica(ctx context.Context, conns [2]*http.Client, primary, follower string, in *inputs, acked []post, seed int64, rec *recorder) {
	var ids []string
	for _, p := range acked {
		for _, e := range p.entries {
			ids = append(ids, e.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7e91ca))
	for _, i := range rng.Perm(len(in.ids))[:min(500, len(in.ids))] {
		ids = append(ids, in.ids[i])
	}
	pr, fr := newRecorder(), newRecorder()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, pe, perr := pr.do(ctx, conns[0], http.MethodGet, primary+"/cve/"+ids[0], nil, "")
		_, fe, ferr := fr.do(ctx, conns[1], http.MethodGet, follower+"/cve/"+ids[0], nil, "")
		if perr == nil && ferr == nil && pe == fe {
			break
		}
		if time.Now().After(deadline) {
			rec.attempted++
			rec.fail("follower did not converge to the primary's position (validators %q vs %q)", fe, pe)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range ids {
		rec.attempted++
		ps, pe, perr := pr.do(ctx, conns[0], http.MethodGet, primary+"/cve/"+id, nil, "")
		fs, fe, ferr := fr.do(ctx, conns[1], http.MethodGet, follower+"/cve/"+id, nil, "")
		switch {
		case perr != nil || ferr != nil:
			rec.fail("replica parity /cve/%s: %v, %v", id, perr, ferr)
		case ps != http.StatusOK || fs != http.StatusOK:
			rec.fail("replica parity /cve/%s: status %d on the primary, %d on the follower", id, ps, fs)
		case pe != fe:
			rec.fail("replica parity /cve/%s: validator %s on the primary, %s on the follower", id, pe, fe)
		case !bytes.Equal(pr.buf.Bytes(), fr.buf.Bytes()):
			rec.fail("replica parity /cve/%s: bodies differ", id)
		}
	}
}
