package main

import (
	"context"
	"sync"
	"testing"

	"nvdclean"
	"nvdclean/internal/cvss"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// benchWorld is the shared benchmark fixture: one cleaned small-scale
// (3K CVE) generation plus the query mix the latency benchmarks
// rotate through. Built once; benchmarks only read it.
var benchWorld struct {
	once sync.Once
	err  error
	opts nvdclean.Options
	snap *nvdclean.Snapshot
	srv  *server
	st   *serveState
	mix  []queryParams
}

func benchState(b *testing.B) *serveState {
	b.Helper()
	benchWorld.once.Do(func() {
		snap, truth, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
		if err != nil {
			benchWorld.err = err
			return
		}
		opts := nvdclean.Options{
			Transport:   nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport(),
			Models:      []predict.ModelKind{predict.ModelLR},
			ModelConfig: predict.ModelConfig{Seed: 1},
			Seed:        1,
		}
		srv := newServer(opts)
		if _, err := srv.advance(context.Background(), transition{snap: snap}); err != nil {
			benchWorld.err = err
			return
		}
		benchWorld.opts = opts
		benchWorld.snap = snap
		benchWorld.srv = srv
		benchWorld.st = srv.cur.Load()
		e := benchWorld.st.res.Cleaned.Entries[0]
		benchWorld.mix = []queryParams{
			{vendor: e.CPEs[0].Vendor, limit: 50},
			{vendor: e.CPEs[0].Vendor, product: e.CPEs[0].Product, limit: 50},
			{sev: cvss.SeverityHigh, hasSev: true, year: e.Year(), limit: 50},
			{year: 2017, sev: cvss.SeverityCritical, hasSev: true, limit: 50},
		}
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.st
}

// BenchmarkQueryIndexed measures a /query body rendered as the daemon
// renders a miss: index intersection over the sharded inverted
// indexes, then the page's window appended.
func BenchmarkQueryIndexed(b *testing.B) {
	st := benchState(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchWorld.mix[i%len(benchWorld.mix)]
		var ok bool
		if buf, ok = st.appendQuery(buf[:0], p); !ok {
			b.Fatal("render failed")
		}
	}
}

// BenchmarkQueryScan measures the same query mix answered by the
// reference O(entries) linear scan and encoded by reflection — the
// pre-index serving path.
func BenchmarkQueryScan(b *testing.B) {
	st := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchWorld.mix[i%len(benchWorld.mix)]
		if body := encodeJSON(st.queryScan(p), false); len(body) == 0 {
			b.Fatal("render failed")
		}
	}
}

// BenchmarkIndexBuild measures a full index build of the generation,
// the cost a warm restart pays once at boot.
func BenchmarkIndexBuild(b *testing.B) {
	st := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := store.BuildIndex(st.res.Cleaned, 0); ix == nil {
			b.Fatal("nil index")
		}
	}
}

// restartWorld is the restart-benchmark fixture: the same small-scale
// snapshot cleaned under a production-shaped configuration — the
// paper's full model zoo (LR, SVR, CNN, DNN; compact widths, the
// repo's standard 25 benchmark epochs) — which is the training cost a
// cold restart pays and a warm restart restores from engine.json.
var restartWorld struct {
	once sync.Once
	err  error
	opts nvdclean.Options
	snap *nvdclean.Snapshot
	res  *nvdclean.Result
}

func restartFixture(b *testing.B) {
	b.Helper()
	restartWorld.once.Do(func() {
		snap, truth, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
		if err != nil {
			restartWorld.err = err
			return
		}
		opts := nvdclean.Options{
			Transport:   nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport(),
			Models:      nil, // the full zoo, as the paper trains
			ModelConfig: predict.ModelConfig{Epochs: 25, Compact: true, Seed: 1},
			Seed:        1,
		}
		res, err := nvdclean.Clean(context.Background(), snap, opts)
		if err != nil {
			restartWorld.err = err
			return
		}
		restartWorld.opts = opts
		restartWorld.snap = snap
		restartWorld.res = res
	})
	if restartWorld.err != nil {
		b.Fatal(restartWorld.err)
	}
}

// BenchmarkWarmRestart measures restoring a serving generation from a
// committed checkpoint directory — disk read, decode, Result
// reassembly and index build; no crawling, no training, no pipeline
// stages.
func BenchmarkWarmRestart(b *testing.B) {
	restartFixture(b)
	dir := b.TempDir()
	str, _, _, _, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := str.Commit(restartWorld.res.StoreCheckpoint()); err != nil {
		b.Fatal(err)
	}
	str.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		str, cp, logged, _, err := store.Open(dir)
		if err != nil || cp == nil || len(logged) != 0 {
			b.Fatalf("open: %v", err)
		}
		res, err := nvdclean.RestoreResult(cp, restartWorld.opts)
		if err != nil {
			b.Fatal(err)
		}
		if ix := store.BuildIndex(res.Cleaned, 0); ix == nil {
			b.Fatal("nil index")
		}
		str.Close()
	}
}

// BenchmarkColdRestart measures the restart path without a store: the
// full cleaning pipeline (crawl, consolidation, CWE fix, zoo
// training, backport) plus the index build.
func BenchmarkColdRestart(b *testing.B) {
	restartFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nvdclean.Clean(context.Background(), restartWorld.snap, restartWorld.opts)
		if err != nil {
			b.Fatal(err)
		}
		if ix := store.BuildIndex(res.Cleaned, 0); ix == nil {
			b.Fatal("nil index")
		}
	}
}
