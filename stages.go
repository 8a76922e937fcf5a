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

// trainingOf is the training signature a severity stage run under
// opts records, for the warm-start equality check.
func trainingOf(opts Options) store.Training {
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
	return store.Training{Models: strings.Join(names, ","), ModelConfig: cfg, Seed: opts.Seed}
}

// incState is the incremental-cleaning state a Result carries so the
// next CleanDelta can reuse per-entry artifacts, the naming survey and
// the trained engine: the store.State a checkpoint persists, plus the
// survey. It is deliberately unexported: callers hold it only through
// a Result.
//
// Crawl estimates, lags and stats are pure per-entry functions of the
// entry's references (the crawler memo changes scheduling, never
// accounting), so unchanged entries of a feed delta replay their
// artifacts without touching the network. Nothing writes to the
// state's maps once their run has built them, so checkpoints share
// them. A run leaves HasBackport and Backport unset: the scores live in
// Result.Backport, and StoreCheckpoint takes them from there.
type incState struct {
	store.State
	// survey is the §4.2 naming survey of the snapshot: its name
	// tallies, candidate pairs and per-vendor product pair blocks. The
	// next CleanDelta derives its survey from this one in O(delta)
	// when no name appears or disappears. It is nil after
	// RestoreResult; the next CleanDelta then surveys from scratch.
	survey *naming.Survey
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
	// CleanDelta's merged snapshot is in ID order by construction.
	if ru == nil {
		if err := snap.CheckOrder(); err != nil {
			return nil, fmt.Errorf("nvdclean: %w (Snapshot.Sort orders a hand-built snapshot)", err)
		}
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
	st := &incState{State: store.State{CWEFix: make(map[string]predict.EntryCorrection)}}
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
		st.Crawled = true
		st.Crawl = make(map[string]store.CrawlArtifact, snap.Len())
		toCrawl := snap.Entries
		if ru != nil && ru.prev.Crawled {
			toCrawl = nil
			for _, e := range snap.Entries {
				if !ru.changed[e.ID] {
					if a, ok := ru.prev.Crawl[e.ID]; ok {
						st.Crawl[e.ID] = a
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
			st.Crawl[r.ID] = store.CrawlArtifact{Estimated: r.Estimated, LagDays: r.LagDays, Stats: perStats[i]}
		}
		foldCrawl(res, snap, st.Crawl, w)
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
		st.survey = survey
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
			if ec.Changed {
				st.CWEFix[e.ID] = ec
			}
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
		st.Fingerprint = predict.DatasetFingerprint(res.Cleaned, opts.Seed)
		st.Training = trainingOf(opts)
		if ru != nil && ru.prev.Trained && ru.prevEngine != nil &&
			ru.prev.Fingerprint == st.Fingerprint && ru.prev.Training == st.Training {
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
		st.Trained = true
		ApplyBackport(res.Cleaned, res.Backport)
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
// entries) stays untouched. The copies drop snap's PV3: a backported
// score in the input (a feed's backportedV3 key) is not the engine's,
// so only the severity stage's ApplyBackport sets one. The copies live
// in one block, a single allocation, since they live and die with
// their generation anyway.
func shareEntries(snap *Snapshot) *Snapshot {
	block := make([]Entry, len(snap.Entries))
	out := &Snapshot{CapturedAt: snap.CapturedAt, Entries: make([]*Entry, len(snap.Entries))}
	for i, e := range snap.Entries {
		block[i] = *e
		block[i].PV3 = nil
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

// cachedCorrection looks up the previous §4.4 outcome of an entry the
// delta does not name. Every run computes an outcome for each entry of
// its snapshot and records the ones that rewrote it, so an entry
// without a record was left alone: the zero outcome.
func cachedCorrection(ru *reuseState, id string) (predict.EntryCorrection, bool) {
	if ru == nil || ru.changed[id] {
		return predict.EntryCorrection{}, false
	}
	return ru.prev.CWEFix[id], true
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
// The delta's lists must be in ID order (Delta.Sort). An added entry
// out of that order, with a malformed ID, or naming a CVE prev.Original
// holds that the delta does not remove, and a delta that removes every
// entry, are errors wrapping ErrBadDelta.
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
	if err := checkDelta(prev.Original, delta); err != nil {
		return nil, err
	}
	merged := prev.Original.ApplyDelta(delta)
	if merged.Len() == 0 {
		return nil, fmt.Errorf("%w: it removes every entry", ErrBadDelta)
	}
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
	if ru.survey = prev.inc.survey; ru.survey != nil {
		for id := range changed {
			if e := prev.Original.ByID(id); e != nil {
				ru.before = append(ru.before, e)
			}
			if e := merged.ByID(id); e != nil {
				ru.after = append(ru.after, e)
			}
		}
	}
	return runClean(ctx, merged, opts, ru)
}

// ErrBadDelta marks a CleanDelta error that the delta alone causes: an
// added entry out of ID order, with a malformed ID, or naming a CVE the
// previous snapshot holds that the delta does not remove, or a delta
// that leaves no entry to clean.
var ErrBadDelta = errors.New("nvdclean: bad delta")

// checkDelta enforces CleanDelta's contract on the added entries; one
// may respell an ID the delta removes. Binary searches keep it O(delta).
func checkDelta(base *Snapshot, d *Delta) error {
	if err := (&Snapshot{Entries: d.Added}).CheckOrder(); err != nil {
		return fmt.Errorf("%w: its added entries: %w (Delta.Sort orders a hand-built delta)", ErrBadDelta, err)
	}
	es, rs := base.Entries, d.Removed
	for _, e := range d.Added {
		i := sort.Search(len(es), func(i int) bool { return !cve.IDLess(es[i].ID, e.ID) })
		j := sort.Search(len(rs), func(j int) bool { return !cve.IDLess(rs[j], e.ID) })
		held := i < len(es) && !cve.IDLess(e.ID, es[i].ID)
		if held && (j == len(rs) || rs[j] != es[i].ID) {
			return fmt.Errorf("%w: it adds %s, which the snapshot already holds as %s", ErrBadDelta, e.ID, es[i].ID)
		}
	}
	return nil
}

// StoreCheckpoint snapshots everything a persistent generation store
// needs to rebuild this Result without re-running the pipeline: the
// original snapshot, the consolidation maps, the trained engine, and
// the incremental-reuse state (dataset fingerprint, training signature,
// per-entry crawl artifacts, the §4.4 corrections, backported scores).
// The cleaned view is not among them: RestoreResult derives it from
// these. Building a checkpoint modifies nothing.
func (r *Result) StoreCheckpoint() *store.Checkpoint {
	st := r.inc.State
	if r.Backport != nil {
		st.HasBackport = true
		st.Backport = r.Backport.Scores
	}
	return &store.Checkpoint{
		Original: r.Original,
		Vendors:  r.VendorMap,
		Products: r.ProductMap,
		Engine:   r.Engine,
		State:    &st,
	}
}

// RestoreResult reassembles a servable, delta-cleanable Result from a
// persisted checkpoint without running any pipeline stage. The cleaned
// view is derived from the original with the stages' own rewrite code:
// the persisted consolidation maps apply through the naming stages'
// functions, the persisted §4.4 corrections replay as the CWE stage
// applies them (an entry without one was left alone), and the persisted
// backported scores are materialized as the severity stage does, so the
// view matches a cold Clean's entry for entry and shares its memory
// layout. Per-entry artifacts replay into the disclosure, lag and CWE
// aggregates in snapshot order (so folds match a from-scratch run bit
// for bit), and the reuse state rearms CleanDelta — including the
// engine warm-start check, provided opts carries the same model
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
	st := &incState{State: *cp.State}
	res.inc = st

	if st.Crawled {
		foldCrawl(res, cp.Original, st.Crawl, opts.Concurrency)
	}
	if st.HasBackport {
		scores := st.Backport
		if scores == nil {
			scores = make(map[string]float64)
		}
		res.Backport = &predict.Backport{Scores: scores}
	}

	applyVendorMap(res)
	applyProductMap(res)
	cor := &predict.CWECorrection{}
	for _, e := range res.Cleaned.Entries {
		applyCWEFix(e, st.CWEFix[e.ID], cor)
	}
	res.CWECorrection = cor
	ApplyBackport(res.Cleaned, res.Backport)
	return res, nil
}

// ApplyBackport materializes backported severity scores into the
// snapshot's PV3 extension field, returning the number of entries
// annotated. Entries with a real v3 vector are left alone, matching the
// paper's pv3 scoring (real v3 when present, predicted otherwise). The
// severity stage and RestoreResult end with it, so every Result's
// cleaned view already carries its scores: readers take them from
// Entry.PV3 (Entry.SeverityPV3 for the band), and WriteFeed exports
// them under the backportedV3 key. A score already materialized is not
// rewritten, so applying again writes nothing and allocates nothing;
// the scores it does write share one block.
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
