package nvdclean

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/naming"
	"nvdclean/internal/parallel"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

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
// next CleanDelta can reuse per-entry artifacts, the naming survey and
// the trained engine. It is deliberately unexported: callers hold it
// only through a Result.
type incState struct {
	// crawl maps CVE ID to its §4.1 artifact; nil when the run had no
	// transport. Estimates, lags and stats are pure per-entry functions
	// of the entry's references (the crawler memo changes scheduling,
	// never accounting), so unchanged entries of a feed delta replay
	// their artifacts without touching the network. Nothing writes to
	// the map once its run has built it, so checkpoints share it.
	crawl map[string]store.CrawlArtifact
	// survey is the §4.2 naming survey of the snapshot: its name
	// tallies, candidate pairs and per-vendor product pair blocks. The
	// next CleanDelta derives its survey from this one in O(delta)
	// when no name appears or disappears. It is nil after
	// RestoreResult, and when the snapshot's entries are not in ID
	// order, since CleanDelta finds the delta's previous versions by
	// binary search; the next CleanDelta then surveys from scratch.
	survey *naming.Survey
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
// feed delta names. Every lookup asks about an entry of the merged
// snapshot, so an ID absent from changed is one the delta left
// untouched. survey is the previous naming survey when it carries
// over, and before and after then hold the entries with a changed ID
// in the previous and the merged snapshot.
type reuseState struct {
	prev          *incState
	prevEngine    *predict.Engine
	prevBackport  map[string]float64
	changed       map[string]bool
	survey        *naming.Survey
	before, after []*Entry
}

// runClean executes the stage graph on snap: the §4.1 crawl (given a
// transport), §4.2 vendors → products and §4.4 CWE correction run as
// three branches of one parallel.Group, and §4.3 severity runs once
// they have joined. With ru == nil every stage computes from scratch
// (a full Clean); with a reuse state the stages replay per-entry
// artifacts for unchanged entries and only process the delta. Both
// paths produce bit-identical Results for the same merged snapshot —
// the invariant the equivalence tests enforce.
func runClean(ctx context.Context, snap *Snapshot, opts Options, ru *reuseState) (*Result, error) {
	if snap == nil || snap.Len() == 0 {
		return nil, fmt.Errorf("nvdclean: empty snapshot")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		Original:            snap,
		Cleaned:             shareEntries(snap),
		EstimatedDisclosure: make(map[string]time.Time),
		LagDays:             make(map[string]int),
		VendorChanged:       make(map[string]bool),
		ProductChanged:      make(map[string]bool),
	}
	st := &incState{cweFix: make(map[string]predict.EntryCorrection, snap.Len())}
	res.inc = st

	// §4.1: disclosure dates via reference crawling. Reads only the
	// untouched original snapshot.
	crawl := func(w int) error {
		c, err := crawler.New(crawler.Config{
			Transport:   opts.Transport,
			TopK:        opts.TopKDomains,
			Concurrency: w,
		})
		if err != nil {
			return fmt.Errorf("nvdclean: building crawler: %w", err)
		}
		st.crawl = make(map[string]store.CrawlArtifact, snap.Len())
		toCrawl := snap.Entries
		if ru != nil && ru.prev.crawl != nil {
			toCrawl = nil
			for _, e := range snap.Entries {
				if !ru.changed[e.ID] {
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
			st.crawl[r.ID] = store.CrawlArtifact{Estimated: r.Estimated, LagDays: r.LagDays, Stats: perStats[i]}
		}
		foldCrawl(res, snap, st.crawl, w)
		return nil
	}

	// §4.2, vendors first: consolidation rewrites only the cleaned
	// view, as the paper does before surveying products. The survey
	// reads the names as snap gives them.
	var survey *naming.Survey
	vendors := func(w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ru != nil && ru.survey != nil {
			survey = ru.survey.Next(snap, ru.before, ru.after)
		} else {
			survey = naming.NewSurvey(snap)
		}
		va := survey.AnalyzeVendors(w)
		res.VendorMap = va.Consolidate(naming.HeuristicJudge{})
		if err := ctx.Err(); err != nil {
			return err
		}
		applyVendorMap(res)
		return nil
	}

	// §4.2, products under the consolidated vendors.
	products := func(w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		pa := survey.AnalyzeProducts(res.VendorMap, w)
		if ru != nil && ru.survey != nil || sortedByID(snap) {
			st.survey = survey
		}
		res.ProductMap = pa.Consolidate(naming.HeuristicProductJudge{})
		if err := ctx.Err(); err != nil {
			return err
		}
		applyProductMap(res)
		return nil
	}

	// §4.4: CWE field correction. Replaces only the CWE field with a
	// fresh slice, so it overlaps the naming stages on the same entries.
	fixCWE := func() error {
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
			applyCWEFix(e, ec, cor)
		}
		res.CWECorrection = cor
		return nil
	}

	// §4.3: CVSS v3 severity backporting, which needs the corrected
	// entries (consolidated names and fixed CWE types).
	severity := func(w int) error {
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
		return nil
	}

	// Each branch starts on an equal share of the worker budget among
	// the branches still running, its own included (products takes its
	// share when vendors returns), and severity runs alone on all of
	// it. Stages are worker-invariant, so the split changes wall-clock
	// time, never bits. Go order is stage order, so Wait returns the
	// first error in crawl, vendors, products, cwe order.
	budget := parallel.Workers(opts.Concurrency)
	share := func(branches int32) int { return max(1, budget/int(branches)) }
	var running atomic.Int32
	running.Store(2)
	if opts.Transport != nil {
		running.Store(3)
	}
	w := share(running.Load())
	var g parallel.Group
	if opts.Transport != nil {
		g.Go(func() error { defer running.Add(-1); return crawl(w) })
	}
	g.Go(func() error {
		defer running.Add(-1)
		if err := vendors(w); err != nil {
			return err
		}
		return products(share(running.Load()))
	})
	g.Go(func() error { defer running.Add(-1); return fixCWE() })
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if !opts.SkipSeverity {
		if err := severity(budget); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shareEntries returns the snapshot the stages clean: a copy of every
// entry struct, sharing each slice and vector with snap. A stage
// replaces a field it rewrites — the naming stages a CPE list, the CWE
// fix a CWE list, ApplyBackport a PV3 pointer — and never writes
// through a shared one, so snap (and every generation that shares its
// entries) stays untouched. The copies live in one block, a single
// allocation, since they live and die with their generation anyway.
func shareEntries(snap *Snapshot) *Snapshot {
	block := make([]Entry, len(snap.Entries))
	out := &Snapshot{CapturedAt: snap.CapturedAt, Entries: make([]*Entry, len(snap.Entries))}
	for i, e := range snap.Entries {
		block[i] = *e
		out.Entries[i] = &block[i]
	}
	return out
}

// applyVendorMap rewrites res.Cleaned under res.VendorMap and marks
// each entry it rewrites in res.VendorChanged. A marked entry gets a
// private CPE list first, so Apply never writes through a list the
// original shares. The vendors stage and RestoreResult both call it.
func applyVendorMap(res *Result) {
	for _, e := range res.Cleaned.Entries {
		for _, n := range e.CPEs {
			if res.VendorMap.Mapped(n.Vendor) {
				res.VendorChanged[e.ID] = true
				e.CPEs = slices.Clone(e.CPEs)
				break
			}
		}
	}
	res.VendorMap.Apply(res.Cleaned)
}

// applyProductMap rewrites res.Cleaned, whose vendors applyVendorMap
// has consolidated, under res.ProductMap and marks each entry it
// rewrites in res.ProductChanged. An entry the vendor map left sharing
// its CPE list gets a private one first. The products stage and
// RestoreResult both call it.
func applyProductMap(res *Result) {
	for _, e := range res.Cleaned.Entries {
		for _, n := range e.CPEs {
			if res.ProductMap.Canonical(n.Vendor, n.Product) != n.Product {
				res.ProductChanged[e.ID] = true
				if !res.VendorChanged[e.ID] {
					e.CPEs = slices.Clone(e.CPEs)
				}
				break
			}
		}
	}
	res.ProductMap.Apply(res.Cleaned)
}

// applyCWEFix applies one entry's §4.4 outcome to its cleaned copy,
// replacing the CWE list rather than writing through the one the
// original shares, and records the outcome. The CWE stage and
// RestoreResult both call it.
func applyCWEFix(e *Entry, ec predict.EntryCorrection, cor *predict.CWECorrection) {
	if ec.Changed {
		e.CWEs = append([]cwe.ID(nil), ec.CWEs...)
	}
	cor.Record(ec)
}

// foldCrawl replays per-entry §4.1 artifacts into res in snapshot
// order, so the stats fold matches a from-scratch crawl of the whole
// snapshot.
func foldCrawl(res *Result, snap *Snapshot, arts map[string]store.CrawlArtifact, workers int) {
	perEntry := make([]crawler.Stats, len(snap.Entries))
	for i, e := range snap.Entries {
		a := arts[e.ID]
		res.EstimatedDisclosure[e.ID] = a.Estimated
		res.LagDays[e.ID] = a.LagDays
		perEntry[i] = a.Stats
	}
	res.CrawlStats = crawler.FoldStats(workers, perEntry)
}

// cachedCorrection looks up a reusable §4.4 outcome for an unchanged
// entry.
func cachedCorrection(ru *reuseState, id string) (predict.EntryCorrection, bool) {
	if ru == nil || ru.prev.cweFix == nil || ru.changed[id] {
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
		if !ru.changed[e.ID] {
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
//   - the §4.2 naming survey carries over: its name tallies update
//     from the delta's entries alone, and when no vendor name or
//     (vendor, product) pair appears or disappears the candidate pairs
//     carry over and only consolidation re-runs; otherwise vendor
//     blocking re-runs over every name, reusing the previous pair
//     scores, and only vendors whose product catalog changed are
//     re-surveyed;
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
	if delta == nil {
		delta = &Delta{}
	}
	merged := prev.Original.ApplyDelta(delta)
	changed := make(map[string]bool, delta.Size())
	for _, id := range delta.ChangedIDs() {
		changed[id] = true
	}
	for _, id := range delta.Removed {
		changed[id] = true
	}
	ru := &reuseState{
		prev:       prev.inc,
		prevEngine: prev.Engine,
		changed:    changed,
	}
	if prev.Backport != nil {
		ru.prevBackport = prev.Backport.Scores
	}
	if prev.inc.survey != nil && wellFormedIDs(delta) {
		ru.survey = prev.inc.survey
		for id := range changed {
			ru.before = appendByID(ru.before, prev.Original, id)
			ru.after = appendByID(ru.after, merged, id)
		}
	}
	return runClean(ctx, merged, opts, ru)
}

// sortedByID reports whether snap's entries are in ID order with every
// ID well formed: the order Snapshot documents, which ApplyDelta keeps
// when the delta's IDs are well formed too.
func sortedByID(snap *Snapshot) bool {
	py, pq := 0, 0
	for _, e := range snap.Entries {
		y, q, err := cve.SplitID(e.ID)
		if err != nil || y < py || y == py && q < pq {
			return false
		}
		py, pq = y, q
	}
	return true
}

// wellFormedIDs reports whether every entry the delta brings has a
// well-formed ID.
func wellFormedIDs(delta *Delta) bool {
	for _, entries := range [][]*Entry{delta.Added, delta.Modified} {
		for _, e := range entries {
			if _, _, err := cve.SplitID(e.ID); err != nil {
				return false
			}
		}
	}
	return true
}

// appendByID appends the entries of snap, which must be sortedByID,
// with the given ID to dst.
func appendByID(dst []*Entry, snap *Snapshot, id string) []*Entry {
	if _, _, err := cve.SplitID(id); err != nil {
		return dst // no entry of snap has it
	}
	es := snap.Entries
	i := sort.Search(len(es), func(i int) bool { return !cve.IDLess(es[i].ID, id) })
	for ; i < len(es) && !cve.IDLess(id, es[i].ID); i++ {
		if es[i].ID == id {
			dst = append(dst, es[i])
		}
	}
	return dst
}

// StoreCheckpoint snapshots everything a persistent generation store
// needs to rebuild this Result without re-running the pipeline: the
// original snapshot, the consolidation maps, the trained engine, and
// the incremental-reuse state (dataset fingerprint, training signature,
// per-entry crawl and CWE artifacts, backported scores). The cleaned
// view is not among them: RestoreResult derives it from these. Building
// a checkpoint modifies nothing.
func (r *Result) StoreCheckpoint() *store.Checkpoint {
	st := &store.State{
		Fingerprint: r.inc.fp,
		Trained:     r.inc.trained,
		Models:      r.inc.sig.models,
		ModelConfig: r.inc.sig.cfg,
		Seed:        r.inc.sig.seed,
		Crawled:     r.inc.crawl != nil,
		Crawl:       r.inc.crawl,
		CWEFix:      r.inc.cweFix,
	}
	if r.Backport != nil {
		st.HasBackport = true
		st.Backport = r.Backport.Scores
	}
	return &store.Checkpoint{
		Original: r.Original,
		Vendors:  r.VendorMap,
		Products: r.ProductMap,
		Engine:   r.Engine,
		State:    st,
	}
}

// RestoreResult reassembles a servable, delta-cleanable Result from a
// persisted checkpoint without running any pipeline stage. The cleaned
// view is derived from the original with the stages' own rewrite code:
// the persisted consolidation maps apply through the naming stages'
// functions, the persisted §4.4 outcomes replay as the CWE stage
// applies them, and the persisted backported scores are materialized,
// so the view matches a cold Clean's entry for entry and shares its
// memory layout. Per-entry artifacts replay into the disclosure, lag
// and CWE aggregates in snapshot order (so folds match a from-scratch
// run bit for bit), and the reuse state rearms CleanDelta — including
// the engine warm-start check, provided opts carries the same model
// selection, training config and seed the checkpoint was produced
// with. The restored Result carries no naming survey: the next
// CleanDelta surveys the merged snapshot from scratch, which changes
// its cost, never its bits.
func RestoreResult(cp *store.Checkpoint, opts Options) (*Result, error) {
	if cp == nil || cp.Original == nil || cp.State == nil ||
		cp.Vendors == nil || cp.Products == nil {
		return nil, errors.New("nvdclean: incomplete checkpoint")
	}
	res := &Result{
		Original:            cp.Original,
		Cleaned:             shareEntries(cp.Original),
		EstimatedDisclosure: make(map[string]time.Time),
		LagDays:             make(map[string]int),
		VendorMap:           cp.Vendors,
		VendorChanged:       make(map[string]bool),
		ProductMap:          cp.Products,
		ProductChanged:      make(map[string]bool),
		Engine:              cp.Engine,
	}
	st := &incState{
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
		// A nil map would tell the next CleanDelta the run never
		// crawled.
		st.crawl = cp.State.Crawl
		if st.crawl == nil {
			st.crawl = make(map[string]store.CrawlArtifact)
		}
		foldCrawl(res, cp.Original, st.crawl, opts.Concurrency)
	}
	if cp.State.HasBackport {
		scores := cp.State.Backport
		if scores == nil {
			scores = make(map[string]float64)
		}
		res.Backport = &predict.Backport{Scores: scores}
	}

	applyVendorMap(res)
	applyProductMap(res)
	cor := &predict.CWECorrection{}
	for _, e := range res.Cleaned.Entries {
		applyCWEFix(e, st.cweFix[e.ID], cor)
	}
	res.CWECorrection = cor
	ApplyBackport(res.Cleaned, res.Backport)
	return res, nil
}

// ApplyBackport materializes backported severity scores into the
// snapshot's PV3 extension field so they survive WriteFeed/LoadFeed
// round trips, returning the number of entries annotated. Entries with
// a real v3 vector are left alone, matching the paper's pv3 scoring
// (real v3 when present, predicted otherwise). A score already
// materialized is not rewritten, so applying again writes nothing and
// allocates nothing; the scores it does write share one block.
func ApplyBackport(snap *Snapshot, b *predict.Backport) int {
	if snap == nil || b == nil {
		return 0
	}
	n := 0
	var block []float64
	for _, e := range snap.Entries {
		if e.V3 != nil {
			continue
		}
		if s, ok := b.Scores[e.ID]; ok {
			if e.PV3 == nil || *e.PV3 != s {
				if block == nil {
					block = make([]float64, 0, len(b.Scores))
				}
				// Appending past the capacity (IDs repeated in snap)
				// moves on to a new block; earlier pointers keep the
				// old one alive.
				block = append(block, s)
				e.PV3 = &block[len(block)-1]
			}
			n++
		}
	}
	return n
}
