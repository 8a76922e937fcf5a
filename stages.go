package nvdclean

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/naming"
	"nvdclean/internal/pipeline"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// Artifact keys of the cleaning pipeline's stage graph. The seeded
// inputs are "original" (the untouched snapshot) and "cleaned" (the
// clone the rewriting stages work on); each stage provides the typed
// result named after it.
const (
	artOriginal = "original" // *Snapshot: the input, never modified
	artCleaned  = "cleaned"  // *Snapshot: the clone the stages rewrite
	artCrawl    = "crawl"    // crawler.Stats: §4.1 aggregate accounting
	artVendors  = "vendors"  // *naming.Map: §4.2 vendor consolidation
	artProducts = "products" // *naming.ProductMap: §4.2 product consolidation
	artCWE      = "cwe"      // *predict.CWECorrection: §4.4 summary
	artSeverity = "severity" // *predict.Engine: §4.3 trained zoo
)

// crawlArtifact is one entry's §4.1 outcome. Estimates, lags and stats
// are pure per-entry functions of the entry's references (the crawler
// memo changes scheduling, never accounting), so unchanged entries of
// a feed delta replay their artifacts without touching the network.
type crawlArtifact struct {
	est time.Time
	lag int
	st  crawler.Stats
}

// trainSig captures everything besides the dataset that determines the
// trained engine, for the warm-start equality check. Workers is
// excluded: trained models are bit-identical at any worker count.
type trainSig struct {
	models string
	cfg    predict.ModelConfig
	seed   int64
}

func trainSigOf(opts Options) trainSig {
	kinds := opts.Models
	if len(kinds) == 0 {
		kinds = predict.AllModels()
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	cfg := opts.ModelConfig
	cfg.Workers = 0
	return trainSig{models: strings.Join(names, ","), cfg: cfg, seed: opts.Seed}
}

// incState is the incremental-cleaning state a Result carries so the
// next CleanDelta can reuse per-entry artifacts and warm caches. It is
// deliberately unexported: callers hold it only through a Result.
type incState struct {
	// crawl maps CVE ID to its §4.1 artifact; nil when the run had no
	// transport.
	crawl map[string]crawlArtifact
	// lcs and prods are pure-function memos shared across runs.
	lcs   *naming.LCSCache
	prods *naming.ProductCache
	// cweFix maps CVE ID to its §4.4 outcome.
	cweFix map[string]predict.EntryCorrection
	// fp and sig identify the trained engine; trained marks a run that
	// executed the severity stage.
	fp      uint64
	sig     trainSig
	trained bool
}

// reuseState tells a run which pieces of the previous Result still
// apply: the per-entry artifact maps plus the set of entry IDs the
// feed delta left untouched.
type reuseState struct {
	prev         *incState
	prevEngine   *predict.Engine
	prevBackport map[string]float64
	unchanged    map[string]bool
}

// runClean executes the stage graph on snap. With ru == nil every
// stage computes from scratch (a full Clean); with a reuse state the
// stages replay per-entry artifacts for unchanged entries and only
// process the delta. Both paths produce bit-identical Results for the
// same merged snapshot — the invariant the equivalence tests enforce.
func runClean(ctx context.Context, snap *Snapshot, opts Options, ru *reuseState) (*Result, error) {
	if snap == nil || snap.Len() == 0 {
		return nil, fmt.Errorf("nvdclean: empty snapshot")
	}
	res := &Result{
		Original:            snap,
		Cleaned:             snap.Clone(),
		EstimatedDisclosure: make(map[string]time.Time),
		LagDays:             make(map[string]int),
		VendorChanged:       make(map[string]bool),
		ProductChanged:      make(map[string]bool),
	}
	st := &incState{
		lcs:    naming.NewLCSCache(),
		prods:  naming.NewProductCache(),
		cweFix: make(map[string]predict.EntryCorrection, snap.Len()),
	}
	if ru != nil {
		// The memo caches validate their own entries (LCS is pure,
		// product blocks re-check catalogs), so carrying them over is
		// always sound.
		st.lcs = ru.prev.lcs
		st.prods = ru.prev.prods
	}
	res.inc = st

	eng := pipeline.New(opts.Concurrency)
	store := pipeline.NewStore()
	store.Put(artOriginal, snap)
	store.Put(artCleaned, res.Cleaned)

	// §4.1: disclosure dates via reference crawling. Reads only the
	// untouched original snapshot.
	if opts.Transport != nil {
		eng.Add(pipeline.Stage{
			Name:     "crawl",
			Needs:    []string{artOriginal},
			Provides: []string{artCrawl},
			Run: func(ctx context.Context, w int, s *pipeline.Store) error {
				c, err := crawler.New(crawler.Config{
					Transport:   opts.Transport,
					TopK:        opts.TopKDomains,
					Concurrency: w,
				})
				if err != nil {
					return fmt.Errorf("nvdclean: building crawler: %w", err)
				}
				st.crawl = make(map[string]crawlArtifact, snap.Len())
				toCrawl := snap.Entries
				if ru != nil && ru.prev.crawl != nil {
					toCrawl = nil
					for _, e := range snap.Entries {
						if ru.unchanged[e.ID] {
							if a, ok := ru.prev.crawl[e.ID]; ok {
								st.crawl[e.ID] = a
								continue
							}
						}
						toCrawl = append(toCrawl, e)
					}
				}
				results, perStats, err := c.EstimateEntries(ctx, toCrawl)
				if err != nil {
					return fmt.Errorf("nvdclean: crawling references: %w", err)
				}
				for i, r := range results {
					st.crawl[r.ID] = crawlArtifact{est: r.Estimated, lag: r.LagDays, st: perStats[i]}
				}
				// Assemble in snapshot order so the stats fold matches
				// a from-scratch crawl of the whole snapshot.
				perEntry := make([]crawler.Stats, len(snap.Entries))
				for i, e := range snap.Entries {
					a := st.crawl[e.ID]
					res.EstimatedDisclosure[e.ID] = a.est
					res.LagDays[e.ID] = a.lag
					perEntry[i] = a.st
				}
				res.CrawlStats = crawler.FoldStats(w, perEntry)
				s.Put(artCrawl, res.CrawlStats)
				return nil
			},
		})
	}

	// §4.2, vendors first: consolidation rewrites only the clone, as
	// the paper does before surveying products.
	eng.Add(pipeline.Stage{
		Name:     "vendors",
		Needs:    []string{artCleaned},
		Provides: []string{artVendors},
		Run: func(ctx context.Context, w int, s *pipeline.Store) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			va := naming.AnalyzeVendorsCached(res.Cleaned, w, st.lcs)
			// Bound the memo by the live name set: a long-running
			// daemon otherwise accumulates scores for every name that
			// ever passed through the feed.
			st.lcs.Prune(func(name string) bool {
				_, ok := va.CVECount[name]
				return ok
			})
			res.VendorMap = va.Consolidate(naming.HeuristicJudge{})
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, e := range res.Cleaned.Entries {
				for _, n := range e.CPEs {
					if res.VendorMap.Mapped(n.Vendor) {
						res.VendorChanged[e.ID] = true
					}
				}
			}
			res.VendorMap.Apply(res.Cleaned)
			s.Put(artVendors, res.VendorMap)
			return nil
		},
	})

	// §4.2, products under the consolidated vendors.
	eng.Add(pipeline.Stage{
		Name:     "products",
		Needs:    []string{artVendors},
		Provides: []string{artProducts},
		Run: func(ctx context.Context, w int, s *pipeline.Store) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			pa := naming.AnalyzeProductsCached(res.Cleaned, w, st.prods)
			live := make(map[string]bool)
			for k := range pa.CVECount {
				live[k[0]] = true
			}
			st.prods.Prune(func(vendor string) bool { return live[vendor] })
			res.ProductMap = pa.Consolidate(naming.HeuristicProductJudge{})
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, e := range res.Cleaned.Entries {
				for _, n := range e.CPEs {
					if res.ProductMap.Canonical(n.Vendor, n.Product) != n.Product {
						res.ProductChanged[e.ID] = true
					}
				}
			}
			res.ProductMap.Apply(res.Cleaned)
			s.Put(artProducts, res.ProductMap)
			return nil
		},
	})

	// §4.4: CWE field correction. Touches only the CWE field, so it
	// overlaps the naming stages on the same clone.
	eng.Add(pipeline.Stage{
		Name:     "cwe",
		Needs:    []string{artCleaned},
		Provides: []string{artCWE},
		Run: func(ctx context.Context, w int, s *pipeline.Store) error {
			reg := cwe.NewRegistry()
			cor := &predict.CWECorrection{}
			for i, e := range res.Cleaned.Entries {
				if i%1024 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				var ec predict.EntryCorrection
				if cached, ok := cachedCorrection(ru, e.ID); ok {
					ec = cached
				} else {
					ec = predict.CorrectEntryCWEs(e, reg)
				}
				st.cweFix[e.ID] = ec
				if ec.Changed {
					e.CWEs = append([]cwe.ID(nil), ec.CWEs...)
				}
				cor.Record(ec)
			}
			res.CWECorrection = cor
			s.Put(artCWE, cor)
			return nil
		},
	})

	// §4.3: CVSS v3 severity backporting, which needs the corrected
	// clone (consolidated names and fixed CWE types).
	if !opts.SkipSeverity {
		eng.Add(pipeline.Stage{
			Name:     "severity",
			Needs:    []string{artProducts, artCWE},
			Provides: []string{artSeverity},
			Run: func(ctx context.Context, w int, s *pipeline.Store) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				st.fp = predict.DatasetFingerprint(res.Cleaned, opts.Seed)
				st.sig = trainSigOf(opts)
				if ru != nil && ru.prev.trained && ru.prevEngine != nil &&
					ru.prev.fp == st.fp && ru.prev.sig == st.sig {
					// Warm start: identical dataset and training
					// config reproduce the engine bit for bit, so the
					// previous one carries over and only entries the
					// delta touched are re-scored.
					res.Engine = ru.prevEngine
					if err := backportDelta(res, ru, w); err != nil {
						return err
					}
				} else {
					ds, err := predict.BuildDataset(res.Cleaned, opts.Seed)
					if err != nil {
						return fmt.Errorf("nvdclean: building severity dataset: %w", err)
					}
					mc := opts.ModelConfig
					if mc.Workers == 0 {
						mc.Workers = w
					}
					res.Engine, err = predict.Train(ds, opts.Models, mc)
					if err != nil {
						return fmt.Errorf("nvdclean: training severity models: %w", err)
					}
					res.Backport, err = res.Engine.BackportAllN(res.Cleaned, w)
					if err != nil {
						return fmt.Errorf("nvdclean: backporting v3 scores: %w", err)
					}
				}
				st.trained = true
				s.Put(artSeverity, res.Engine)
				return nil
			},
		})
	}

	if err := eng.Run(ctx, store); err != nil {
		return nil, err
	}
	return res, nil
}

// cachedCorrection looks up a reusable §4.4 outcome for an unchanged
// entry.
func cachedCorrection(ru *reuseState, id string) (predict.EntryCorrection, bool) {
	if ru == nil || ru.prev.cweFix == nil || !ru.unchanged[id] {
		return predict.EntryCorrection{}, false
	}
	ec, ok := ru.prev.cweFix[id]
	return ec, ok
}

// backportDelta rebuilds the backport map under a reused engine:
// unchanged v2-only entries keep their previous scores (per-entry pure
// function of v2 vector + corrected CWE under a fixed model), changed
// ones are scored as one batch.
func backportDelta(res *Result, ru *reuseState, workers int) error {
	scores := make(map[string]float64)
	var pending []*cve.Entry
	for _, e := range res.Cleaned.Entries {
		if e.V2 == nil || e.V3 != nil {
			continue
		}
		if ru.unchanged[e.ID] {
			if v, ok := ru.prevBackport[e.ID]; ok {
				scores[e.ID] = v
				continue
			}
		}
		pending = append(pending, e)
	}
	if len(pending) > 0 {
		b, err := res.Engine.BackportAllN(&cve.Snapshot{Entries: pending}, workers)
		if err != nil {
			return fmt.Errorf("nvdclean: backporting delta: %w", err)
		}
		for id, v := range b.Scores {
			scores[id] = v
		}
	}
	res.Backport = &predict.Backport{Scores: scores}
	return nil
}

// Delta is the difference between two snapshots — the unit of
// incremental cleaning. Build one with Diff or assemble it from a feed
// update.
type Delta = cve.Delta

// Diff computes the delta turning the old snapshot into the new one.
func Diff(old, new *Snapshot) *Delta { return cve.Diff(old, new) }

// CleanDelta incrementally cleans a feed delta on top of a previous
// Clean (or CleanDelta) Result, producing a Result bit-identical to
// Clean(ctx, prev.Original.ApplyDelta(delta), opts) at a fraction of
// the cost:
//
//   - unchanged entries replay their recorded crawl artifacts, so only
//     new or modified references touch the network;
//   - name consolidation reuses the LCS memo and per-vendor pair
//     blocks, re-surveying only what the delta's names perturb;
//   - §4.4 outcomes replay for unchanged entries;
//   - when the delta leaves the dual-labeled training split untouched
//     (the common case — new CVEs are v2-only, which is why backporting
//     exists) the trained engine carries over and only changed entries
//     are re-scored.
//
// Bit-identity assumes opts matches the options of the previous run
// (same Transport behavior, TopKDomains, Models, ModelConfig and Seed)
// and a deterministic transport; Concurrency is free to differ. The
// previous Result is not modified and remains servable while the delta
// cleans — the zero-downtime swap cmd/nvdserve relies on.
func CleanDelta(ctx context.Context, prev *Result, delta *Delta, opts Options) (*Result, error) {
	if prev == nil || prev.inc == nil {
		return nil, errors.New("nvdclean: CleanDelta needs a Result produced by Clean or CleanDelta")
	}
	merged := prev.Original.ApplyDelta(delta)
	changed := make(map[string]bool, delta.Size())
	for _, id := range delta.ChangedIDs() {
		changed[id] = true
	}
	unchanged := make(map[string]bool, merged.Len())
	for _, e := range merged.Entries {
		if !changed[e.ID] {
			unchanged[e.ID] = true
		}
	}
	ru := &reuseState{
		prev:       prev.inc,
		prevEngine: prev.Engine,
		unchanged:  unchanged,
	}
	if prev.Backport != nil {
		ru.prevBackport = prev.Backport.Scores
	}
	return runClean(ctx, merged, opts, ru)
}

// StoreCheckpoint snapshots everything a persistent generation store
// needs to rebuild this Result without re-running the pipeline: both
// snapshots, the consolidation maps, the trained engine, and the
// incremental-reuse state (dataset fingerprint, training signature,
// per-entry crawl and CWE artifacts, backported scores). Backported
// scores are materialized into the cleaned snapshot's PV3 extension
// field first (idempotently), so the persisted cleaned feed carries
// them under the codec's backportedV3 key.
func (r *Result) StoreCheckpoint() *store.Checkpoint {
	ApplyBackport(r.Cleaned, r.Backport)
	st := &store.State{
		Fingerprint: r.inc.fp,
		Trained:     r.inc.trained,
		Models:      r.inc.sig.models,
		ModelConfig: r.inc.sig.cfg,
		Seed:        r.inc.sig.seed,
		CWEFix:      r.inc.cweFix,
	}
	if r.inc.crawl != nil {
		st.Crawled = true
		st.Crawl = make(map[string]store.CrawlArtifact, len(r.inc.crawl))
		for id, a := range r.inc.crawl {
			st.Crawl[id] = store.CrawlArtifact{Estimated: a.est, LagDays: a.lag, Stats: a.st}
		}
	}
	if r.Backport != nil {
		st.HasBackport = true
		st.Backport = r.Backport.Scores
	}
	return &store.Checkpoint{
		Original: r.Original,
		Cleaned:  r.Cleaned,
		Vendors:  r.VendorMap,
		Products: r.ProductMap,
		Engine:   r.Engine,
		State:    st,
	}
}

// RestoreResult reassembles a servable, delta-cleanable Result from a
// persisted checkpoint without running any pipeline stage: snapshots
// and maps load as stored, per-entry artifacts replay into the
// disclosure/lag/CWE aggregates in snapshot order (so folds match a
// from-scratch run bit for bit), and the reuse state rearms CleanDelta
// — including the engine warm-start check, provided opts carries the
// same model selection, training config and seed the checkpoint was
// produced with. The pure-function naming memos are rebuilt lazily by
// the next delta clean; starting them empty changes cost, never bits.
func RestoreResult(cp *store.Checkpoint, opts Options) (*Result, error) {
	if cp == nil || cp.Original == nil || cp.Cleaned == nil || cp.State == nil ||
		cp.Vendors == nil || cp.Products == nil {
		return nil, errors.New("nvdclean: incomplete checkpoint")
	}
	if cp.Original.Len() != cp.Cleaned.Len() {
		return nil, fmt.Errorf("nvdclean: checkpoint snapshots disagree (%d original vs %d cleaned entries)",
			cp.Original.Len(), cp.Cleaned.Len())
	}
	res := &Result{
		Original:            cp.Original,
		Cleaned:             cp.Cleaned,
		EstimatedDisclosure: make(map[string]time.Time),
		LagDays:             make(map[string]int),
		VendorMap:           cp.Vendors,
		VendorChanged:       make(map[string]bool),
		ProductMap:          cp.Products,
		ProductChanged:      make(map[string]bool),
		Engine:              cp.Engine,
	}
	st := &incState{
		lcs:     naming.NewLCSCache(),
		prods:   naming.NewProductCache(),
		cweFix:  cp.State.CWEFix,
		fp:      cp.State.Fingerprint,
		sig:     trainSig{models: cp.State.Models, cfg: cp.State.ModelConfig, seed: cp.State.Seed},
		trained: cp.State.Trained,
	}
	if st.cweFix == nil {
		st.cweFix = make(map[string]predict.EntryCorrection)
	}
	res.inc = st

	if cp.State.Crawled {
		st.crawl = make(map[string]crawlArtifact, len(cp.State.Crawl))
		for id, a := range cp.State.Crawl {
			st.crawl[id] = crawlArtifact{est: a.Estimated, lag: a.LagDays, st: a.Stats}
		}
		perEntry := make([]crawler.Stats, len(cp.Original.Entries))
		for i, e := range cp.Original.Entries {
			a := st.crawl[e.ID]
			res.EstimatedDisclosure[e.ID] = a.est
			res.LagDays[e.ID] = a.lag
			perEntry[i] = a.st
		}
		res.CrawlStats = crawler.FoldStats(opts.Concurrency, perEntry)
	}
	if cp.State.HasBackport {
		scores := cp.State.Backport
		if scores == nil {
			scores = make(map[string]float64)
		}
		res.Backport = &predict.Backport{Scores: scores}
	}

	// The changed-entry flags are pure functions of the original names
	// and the maps: a vendor flag records any remapped vendor name, a
	// product flag a remapped product under its consolidated vendor —
	// exactly what the naming stages computed before applying the maps.
	for _, e := range cp.Original.Entries {
		for _, n := range e.CPEs {
			if res.VendorMap.Mapped(n.Vendor) {
				res.VendorChanged[e.ID] = true
			}
			cv := res.VendorMap.Canonical(n.Vendor)
			if res.ProductMap.Canonical(cv, n.Product) != n.Product {
				res.ProductChanged[e.ID] = true
			}
		}
	}

	cor := &predict.CWECorrection{}
	for _, e := range cp.Original.Entries {
		cor.Record(st.cweFix[e.ID])
	}
	res.CWECorrection = cor
	return res, nil
}

// ApplyBackport materializes backported severity scores into the
// snapshot's PV3 extension field so they survive WriteFeed/LoadFeed
// round trips, returning the number of entries annotated. Entries with
// a real v3 vector are left alone, matching the paper's pv3 scoring
// (real v3 when present, predicted otherwise). A score already
// materialized is not rewritten, so applying again to a snapshot that
// is being served (StoreCheckpoint of a serving generation) writes
// nothing a concurrent reader could race.
func ApplyBackport(snap *Snapshot, b *predict.Backport) int {
	if snap == nil || b == nil {
		return 0
	}
	n := 0
	for _, e := range snap.Entries {
		if e.V3 != nil {
			continue
		}
		if s, ok := b.Scores[e.ID]; ok {
			if e.PV3 == nil || *e.PV3 != s {
				v := s
				e.PV3 = &v
			}
			n++
		}
	}
	return n
}
