package nvdclean

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
// the trained engine: the store.State and the survey a checkpoint
// persists. It is deliberately unexported: callers hold it only
// through a Result.
//
// Crawl estimates, lags and stats are pure per-entry functions of the
// entry's references (the crawler memo changes scheduling, never
// accounting), so unchanged entries of a feed delta replay their
// artifacts without touching the network. Nothing writes to the
// state's maps once their run has built them, so checkpoints share
// them, and so does the next run while it changes none of their
// values. A run leaves Backport unset: the scores live in
// Result.Backport, and StoreCheckpoint takes them from there.
type incState struct {
	store.State
	// survey is the §4.2 naming survey of the snapshot: its name
	// tallies, candidate pairs and per-vendor product pair blocks. The
	// next CleanDelta derives its survey from this one in O(delta)
	// when no name appears or disappears.
	survey *naming.Survey
}

// reuseState tells a run which recorded outputs still apply: those of
// a previous Result, whose cleaned view, per-entry artifacts, naming
// survey, engine and scores it reuses, and the set of entry IDs the
// feed delta names, empty for a restore. Every lookup asks about an
// entry of the snapshot the run cleans, so an ID absent from changed is
// one the delta left untouched. before and after hold the entries with
// a changed ID in the previous and the merged snapshot, after in ID
// order, and removed the changed IDs the merged snapshot lacks.
type reuseState struct {
	prev          *Result
	changed       map[string]bool
	before, after []*Entry
	removed       []string
}

// runClean executes the stage graph on snap: the §4.1 crawl (given a
// transport), §4.2 vendors → products and §4.4 CWE correction run as
// three branches of one parallel.Group, and §4.3 severity runs once
// they have joined. With ru == nil every stage computes from scratch
// (a full Clean); with a reuse state each stage replays what it
// recorded for unchanged entries, recomputes what opts changes, and
// processes only the delta. Given the previous cleaned view too, the
// run carries every entry the delta does not name (see view) and
// patches the previous run's per-ID results for the entries it
// derives. Clean runs this one graph without a reuse state and
// CleanDelta with one, RestoreResult being CleanDelta of an empty delta
// with no cleaned view to carry, and all give bit-identical Results for
// the same snapshot and options — the invariant the equivalence tests
// enforce.
func runClean(ctx context.Context, snap *Snapshot, opts Options, ru *reuseState) (*Result, error) {
	if snap == nil || snap.Len() == 0 {
		return nil, fmt.Errorf("nvdclean: empty snapshot")
	}
	// A delta's merged snapshot and a checkpoint's original are in ID
	// order by construction.
	if ru == nil {
		if err := snap.CheckOrder(); err != nil {
			return nil, fmt.Errorf("nvdclean: %w (Snapshot.Sort orders a hand-built snapshot)", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// base is the Result whose cleaned view the run carries and whose
	// per-ID results it patches: the previous one when it has a view,
	// nil when the run derives every entry and builds them from nothing.
	var base *Result
	var prevSurvey *naming.Survey
	var after []*Entry
	if ru != nil {
		prevSurvey = ru.prev.inc.survey
		if ru.prev.Cleaned != nil {
			base, after = ru.prev, ru.after
		}
	}
	v := newView(snap, base, after)
	res := &Result{
		Original:            snap,
		Cleaned:             v.Snapshot,
		EstimatedDisclosure: make(map[string]time.Time),
		LagDays:             make(map[string]int),
	}
	st := &incState{}
	res.inc = st

	// §4.1: disclosure dates via reference crawling. Reads only the
	// untouched original snapshot.
	crawl := func(w int) error {
		c, err := crawler.New(crawler.Config{
			Transport:   opts.Transport,
			Concurrency: w,
		})
		if err != nil {
			return fmt.Errorf("nvdclean: building crawler: %w", err)
		}
		st.Crawled = true
		st.Crawl = make(map[string]store.CrawlArtifact, snap.Len())
		toCrawl := snap.Entries
		if ru != nil && ru.prev.inc.Crawled {
			toCrawl = nil
			for _, e := range snap.Entries {
				if !ru.changed[e.ID] {
					if a, ok := ru.prev.inc.Crawl[e.ID]; ok {
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
		// Fold every entry's stats, reused or crawled, so they match a
		// full crawl of the whole snapshot.
		perEntry := make([]crawler.Stats, len(snap.Entries))
		for i, e := range snap.Entries {
			a := st.Crawl[e.ID]
			res.EstimatedDisclosure[e.ID] = a.Estimated
			res.LagDays[e.ID] = a.LagDays
			perEntry[i] = a.Stats
		}
		res.CrawlStats = crawler.FoldStats(perEntry)
		return nil
	}

	// §4.2, vendors first. The survey reads the names as snap gives
	// them. Its vendor analysis is the previous survey's when no tally
	// moved, and then so is the vendor map; a map consolidated anew that
	// equals the previous one is replaced by it too, so the next run
	// sees the same pointer.
	var survey *naming.Survey
	var movedVendors map[string]bool
	vendors := func(w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if prevSurvey != nil {
			survey = prevSurvey.Next(snap, ru.before, ru.after)
		} else {
			survey = naming.NewSurvey(snap)
		}
		va := survey.AnalyzeVendors(w)
		if base != nil && va == prevSurvey.VendorAnalysis() {
			res.VendorMap = base.VendorMap
			return nil
		}
		res.VendorMap = va.Consolidate(naming.HeuristicJudge{})
		if base != nil {
			if movedVendors = base.VendorMap.Changed(res.VendorMap); movedVendors == nil {
				res.VendorMap = base.VendorMap
			}
		}
		return nil
	}

	// §4.2, products under the consolidated vendors, and then the
	// rewrite of the names: every entry the run derived, and every
	// carried entry with a name whose mapping changed, re-derived first.
	products := func(w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		pa := survey.AnalyzeProducts(res.VendorMap, w)
		st.survey = survey
		var movedProducts map[[2]string]bool
		if base != nil && pa == prevSurvey.ProductAnalysis() {
			res.ProductMap = base.ProductMap
		} else {
			res.ProductMap = pa.Consolidate(naming.HeuristicProductJudge{})
			if base != nil {
				if movedProducts = base.ProductMap.Changed(res.ProductMap); movedProducts == nil {
					res.ProductMap = base.ProductMap
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var renamed []int
		if movedVendors != nil || movedProducts != nil {
			for i, e := range snap.Entries {
				if !v.owned[i] && namesMoved(e, res.VendorMap, movedVendors, movedProducts) {
					renamed = append(renamed, i)
				}
			}
		}
		copies := v.rederive(renamed)
		vendorChanged := newPatch(base, func(r *Result) map[string]bool { return r.VendorChanged }, same[bool], 0)
		productChanged := newPatch(base, func(r *Result) map[string]bool { return r.ProductChanged }, same[bool], 0)
		name := func(e *Entry) {
			vendor, product := rename(e, res.VendorMap, res.ProductMap)
			vendorChanged.put(e.ID, true, vendor)
			productChanged.put(e.ID, true, product)
		}
		for _, e := range v.derived {
			name(e)
		}
		for k, e := range copies {
			e.CPEs = snap.Entries[renamed[k]].CPEs
			name(e)
		}
		if base != nil {
			for _, id := range ru.removed {
				vendorChanged.put(id, false, false)
				productChanged.put(id, false, false)
			}
		}
		res.VendorChanged, res.ProductChanged = vendorChanged.m, productChanged.m
		return nil
	}

	// §4.4: CWE field correction of the entries the run derived (a
	// carried entry's outcome is its previous one). Replaces only the
	// CWE field with a fresh slice, so it overlaps the naming stages on
	// the same entries.
	fixCWE := func() error {
		reg := cwe.NewRegistry()
		fix := newPatch(base, func(r *Result) map[string]predict.EntryCorrection { return r.inc.CWEFix }, sameCorrection, 0)
		var cor predict.CWECorrection
		if base != nil {
			cor = *base.CWECorrection
		}
		for i, e := range v.derived {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if base != nil {
				cor.Unrecord(base.inc.CWEFix[e.ID])
			}
			ec, ok := cachedCorrection(ru, e.ID)
			if !ok {
				ec = predict.CorrectEntryCWEs(e, reg)
			}
			if ec.Changed {
				e.CWEs = append([]cwe.ID(nil), ec.CWEs...)
			}
			fix.put(e.ID, ec, ec.Changed)
			cor.Record(ec)
		}
		if base != nil {
			for _, id := range ru.removed {
				cor.Unrecord(base.inc.CWEFix[id])
				fix.put(id, predict.EntryCorrection{}, false)
			}
		}
		st.CWEFix = fix.m
		res.CWECorrection = &cor
		if base != nil && cor == *base.CWECorrection {
			res.CWECorrection = base.CWECorrection
		}
		return nil
	}

	// §4.3: CVSS v3 severity backporting, which needs the corrected
	// entries (consolidated names and fixed CWE types). warm reports
	// that the previous engine, and so every score of an entry the run
	// did not derive, carried over.
	warm := false
	severity := func(w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Fingerprint = v.fingerprint(base, ru, opts.Seed)
		st.Training = trainingOf(opts)
		if ru != nil && ru.prev.inc.Trained && ru.prev.Engine != nil &&
			ru.prev.inc.Fingerprint == st.Fingerprint && ru.prev.inc.Training == st.Training {
			// Warm start: identical dataset and training
			// config reproduce the engine bit for bit, so the
			// previous one carries over and only entries the
			// delta touched are re-scored.
			warm = true
			res.Engine = ru.prev.Engine
			if err := backportDelta(res, ru, v, base, w); err != nil {
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
	// Under a carried engine the entries the run did not derive keep
	// their scores; otherwise any of them may need another.
	v.settleScores(res.Backport, !warm || base == nil)
	if base != nil {
		res.CleanedDelta = v.delta(base.Cleaned, ru.removed)
	}
	return res, nil
}

// view is the cleaned snapshot a run builds. Without a previous cleaned
// view every entry is derived: a copy of its original entry struct
// that shares each slice and vector with it, all copies in one block.
// With one, an entry the delta does not name is carried instead: the
// previous view's *Entry, PV3 included, shared read-only with the
// generation still serving it. The run owns its derived entries; a
// stage replaces a field it rewrites — the naming stages a CPE list,
// the CWE fix a CWE list, settleScores a PV3 pointer — and never writes
// through a shared slice or vector, so the original stays untouched. A
// stage that must change a carried entry, because one of its names
// maps anew or its score moved, re-derives it first into a fresh copy,
// so no generation's view is ever written. What a carried entry pins
// is the block it was allocated in, the Clean's block of every entry or
// a later run's block of the few it derived: a block is freed once no
// view holds any of its entries.
type view struct {
	*Snapshot
	// derived lists the entries the run derived when it began: every
	// entry without a previous view, else those the delta names.
	derived []*Entry
	// owned marks the entries the run owns, and ownedAt lists their
	// indices in the order the run took them; both nil when it owns them
	// all.
	owned   []bool
	ownedAt []int
}

// newView starts the cleaned view of snap: every entry derived when
// base is nil, else the entries of after derived and every other entry
// carried from base's view. A derived entry drops its original's PV3:
// a backported score in the input (a feed's backportedV3 key) is not
// the engine's, so only settleScores sets one.
func newView(snap *Snapshot, base *Result, after []*Entry) *view {
	v := &view{Snapshot: &Snapshot{CapturedAt: snap.CapturedAt, Entries: make([]*Entry, len(snap.Entries))}}
	if base == nil {
		block := make([]Entry, len(snap.Entries))
		for i, e := range snap.Entries {
			block[i] = *e
			block[i].PV3 = nil
			v.Entries[i] = &block[i]
		}
		v.derived = v.Entries
		return v
	}
	// snap is base's original with the delta applied, which leaves
	// every other entry pointer in place and in order, and after is in
	// snap's order: walk the three in one merge. An entry found in
	// neither after nor base's original is derived too.
	prevOrig, prevView := base.Original.Entries, base.Cleaned.Entries
	block := make([]Entry, 0, len(after))
	v.owned = make([]bool, len(snap.Entries))
	v.derived = make([]*Entry, 0, len(after))
	j, k := 0, 0
	for i, e := range snap.Entries {
		if k < len(after) && after[k] == e {
			k++
		} else {
			for j < len(prevOrig) && prevOrig[j] != e {
				j++
			}
			if j < len(prevOrig) {
				v.Entries[i] = prevView[j]
				j++
				continue
			}
		}
		block = append(block, *e)
		c := &block[len(block)-1]
		c.PV3 = nil
		v.Entries[i], v.owned[i] = c, true
		v.ownedAt = append(v.ownedAt, i)
		v.derived = append(v.derived, c)
	}
	return v
}

// rederive replaces each carried entry at the indices idx with a fresh
// copy the run owns, all copies in one block, and returns the copies.
func (v *view) rederive(idx []int) []*Entry {
	if len(idx) == 0 {
		return nil
	}
	block := make([]Entry, len(idx))
	copies := make([]*Entry, len(idx))
	for k, i := range idx {
		block[k] = *v.Entries[i]
		v.Entries[i], v.owned[i] = &block[k], true
		copies[k] = &block[k]
	}
	v.ownedAt = append(v.ownedAt, idx...)
	return copies
}

// fingerprint returns predict.DatasetFingerprint of the view under
// seed. A run carrying base's view whose severity stage ran under the
// same seed keeps base's fingerprint while every entry it owns holds
// the training sample its previous version held, or none on both
// sides, and no ID it removes held one (predict.SameSample): the view's
// dual-labeled entries are then base's, sample for sample and in the
// same ID order, which is all the fingerprint hashes. Otherwise it
// hashes the view.
func (v *view) fingerprint(base *Result, ru *reuseState, seed int64) uint64 {
	if base == nil || !base.inc.Trained || base.inc.Training.Seed != seed {
		return predict.DatasetFingerprint(v.Snapshot, seed)
	}
	for _, i := range v.ownedAt {
		e := v.Entries[i]
		if !predict.SameSample(base.Cleaned.ByID(e.ID), e) {
			return predict.DatasetFingerprint(v.Snapshot, seed)
		}
	}
	for _, id := range ru.removed {
		if !predict.SameSample(base.Cleaned.ByID(id), nil) {
			return predict.DatasetFingerprint(v.Snapshot, seed)
		}
	}
	return base.inc.Fingerprint
}

// delta returns the cleaned-view delta from prev, the view the run
// carried, to v: Diff(prev, v) built from the entries the run owns and
// the IDs it removed alone. Every other entry of v is prev's *Entry, so
// Diff finds it equal; an owned entry is Added when prev lacks its ID
// and Modified when it differs from its previous version, and a removed
// ID prev held is Removed. The lists hold v's entries and the removed
// ID strings only, so the delta keeps no earlier view alive.
func (v *view) delta(prev *Snapshot, removed []string) *Delta {
	slices.Sort(v.ownedAt)
	d := &Delta{CapturedAt: v.CapturedAt}
	for _, i := range v.ownedAt {
		e := v.Entries[i]
		switch old := prev.ByID(e.ID); {
		case old == nil:
			d.Added = append(d.Added, e)
		case !old.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	for _, id := range removed {
		if prev.ByID(id) != nil {
			d.Removed = append(d.Removed, id)
		}
	}
	// An ID the feed delta both modifies and removes comes first in
	// removed, ahead of the IDs it only removes.
	slices.SortFunc(d.Removed, func(a, b string) int {
		switch {
		case cve.IDLess(a, b):
			return -1
		case cve.IDLess(b, a):
			return 1
		}
		return 0
	})
	return d
}

// settleScores makes each entry's PV3 its score in b, and nil on an
// entry b does not score, every entry when b is nil; an entry with a
// real v3 vector has none, matching the paper's pv3 scoring. It visits
// every entry when all is set and the derived ones otherwise,
// re-deriving first a carried entry whose PV3 must change, and writes
// the scores with ApplyBackport.
func (v *view) settleScores(b *predict.Backport, all bool) {
	var scores map[string]float64
	if b != nil {
		scores = b.Scores
	}
	scored := func(e *Entry) (float64, bool) {
		s, ok := scores[e.ID]
		return s, ok && e.V3 == nil
	}
	entries := v.derived
	if all {
		if v.owned != nil {
			var stale []int
			for i, e := range v.Entries {
				if s, ok := scored(e); !v.owned[i] && (ok != (e.PV3 != nil) || ok && *e.PV3 != s) {
					stale = append(stale, i)
				}
			}
			v.rederive(stale)
		}
		entries = v.Entries
	}
	for _, e := range entries {
		if _, ok := scored(e); !ok && e.PV3 != nil {
			e.PV3 = nil
		}
	}
	ApplyBackport(&Snapshot{Entries: entries}, b)
}

// namesMoved reports whether a CPE name of e, an original entry, has a
// vendor in movedVendors or, under vm, a (vendor, product) in
// movedProducts: whether its cleaned names may differ from the
// previous run's.
func namesMoved(e *Entry, vm *naming.Map, movedVendors map[string]bool, movedProducts map[[2]string]bool) bool {
	for _, n := range e.CPEs {
		if movedVendors[n.Vendor] || movedProducts[[2]string{vm.Canonical(n.Vendor), n.Product}] {
			return true
		}
	}
	return false
}

// rename rewrites the CPE names of e, whose list is its original's,
// through vm and then, under the consolidated vendor, pm, giving e a
// private list before the first rewrite so the original's list is never
// written. It reports whether a vendor and whether a product changed.
func rename(e *Entry, vm *naming.Map, pm *naming.ProductMap) (vendor, product bool) {
	private := false
	for i, n := range e.CPEs {
		v := vm.Canonical(n.Vendor)
		p := pm.Canonical(v, n.Product)
		if v == n.Vendor && p == n.Product {
			continue
		}
		if !private {
			e.CPEs = slices.Clone(e.CPEs)
			private = true
		}
		e.CPEs[i].Vendor, e.CPEs[i].Product = v, p
		vendor = vendor || v != n.Vendor
		product = product || p != n.Product
	}
	return vendor, product
}

// patch is a per-ID result a run derives from the previous run's by
// patching the IDs it derives or removes: it shares the previous map,
// read-only, until a value changes, and copies it then. A run with no
// base Result starts from an empty map of its own, sized for size IDs.
type patch[V any] struct {
	m     map[string]V
	owned bool
	equal func(a, b V) bool
}

func newPatch[V any](base *Result, of func(*Result) map[string]V, equal func(a, b V) bool, size int) patch[V] {
	if base == nil {
		return patch[V]{m: make(map[string]V, size), owned: true, equal: equal}
	}
	return patch[V]{m: of(base), equal: equal}
}

// put maps id to val when ok, and to nothing otherwise.
func (p *patch[V]) put(id string, val V, ok bool) {
	if old, had := p.m[id]; had == ok && (!ok || p.equal(old, val)) {
		return
	}
	if !p.owned {
		p.m, p.owned = maps.Clone(p.m), true
	}
	if ok {
		p.m[id] = val
	} else {
		delete(p.m, id)
	}
}

func same[V comparable](a, b V) bool { return a == b }

func sameCorrection(a, b predict.EntryCorrection) bool {
	return a.Changed == b.Changed && a.Kind == b.Kind && slices.Equal(a.CWEs, b.CWEs)
}

// cachedCorrection looks up the previous §4.4 outcome of an entry the
// delta does not name. Every run computes an outcome for each entry of
// its snapshot and records the ones that rewrote it, so an entry
// without a record was left alone: the zero outcome.
func cachedCorrection(ru *reuseState, id string) (predict.EntryCorrection, bool) {
	if ru == nil || ru.changed[id] {
		return predict.EntryCorrection{}, false
	}
	return ru.prev.inc.CWEFix[id], true
}

// backportDelta rebuilds the backport map under a reused engine:
// unchanged v2-only entries keep their previous scores (per-entry pure
// function of v2 vector + corrected CWE under a fixed model), changed
// ones are scored as one batch. The previous Result's severity stage
// ran, so it has scores. With a base Result the run patches its map for
// the entries it derived and the IDs the delta removed, sharing it, and
// the Backport, while no score moves.
func backportDelta(res *Result, ru *reuseState, v *view, base *Result, workers int) error {
	prev := ru.prev.Backport.Scores
	scores := newPatch(base, func(r *Result) map[string]float64 { return r.Backport.Scores }, same[float64], len(prev))
	var pending []*cve.Entry
	for _, e := range v.derived {
		if e.V2 == nil || e.V3 != nil {
			scores.put(e.ID, 0, false)
			continue
		}
		if !ru.changed[e.ID] {
			if s, ok := prev[e.ID]; ok {
				scores.put(e.ID, s, true)
				continue
			}
		}
		pending = append(pending, e)
	}
	if base != nil {
		for _, id := range ru.removed {
			scores.put(id, 0, false)
		}
	}
	if len(pending) > 0 {
		b, err := res.Engine.BackportAllN(&cve.Snapshot{Entries: pending}, workers)
		if err != nil {
			return fmt.Errorf("nvdclean: backporting delta: %w", err)
		}
		for id, s := range b.Scores {
			scores.put(id, s, true)
		}
	}
	if !scores.owned {
		res.Backport = base.Backport
		return nil
	}
	res.Backport = &predict.Backport{Scores: scores.m}
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
//     are re-scored; the dataset fingerprint that decides it carries
//     over too, unhashed, while no entry the run derives or removes
//     changes its training sample;
//   - the cleaned view carries over: an entry the delta does not name
//     keeps prev's cleaned *Entry unless a consolidation map now
//     resolves one of its names differently or a retrain moves its
//     score, and the per-ID results (VendorChanged, ProductChanged, the
//     §4.4 records and counts, the backported scores) are prev's,
//     patched for the entries the run derives and shared while none of
//     their values changes. An edit that moves no name tally reuses
//     both consolidation maps, so a one-entry edit allocates alike at
//     any snapshot size;
//   - the Result records the cleaned-view delta, Diff(prev.Cleaned,
//     Cleaned), built from the entries the run derived and the IDs it
//     removed (Result.CleanedDelta), so a server maintaining indexes
//     and caches over the cleaned view never diffs the two views.
//
// With the merge of the delta into prev.Original, a binary search per
// delta ID, a one-entry edit then costs no pass over the snapshot but
// the few pointer walks that build the merged original and the view.
//
// The delta's lists must be in ID order (Delta.Sort). An added entry
// out of that order, with a malformed ID, or naming a CVE prev.Original
// holds that the delta does not remove, a delta that removes every
// entry, and one that leaves too few dual-labeled entries to train on
// (predict.ErrUntrainable), are errors wrapping ErrBadDelta.
//
// Each stage re-derives what opts changes against the previous run, as
// RestoreResult does against a checkpoint: other Models, ModelConfig
// or Seed retrain, SkipSeverity drops the scores, and a Transport the
// previous run lacked crawls every entry. Replayed crawl artifacts
// assume the previous run's transport behavior and a deterministic
// transport; every run crawls the crawler's default top domains, and
// Concurrency is free to differ. The previous Result is not modified
// and remains servable while the delta cleans — the zero-downtime swap
// cmd/nvdserve relies on.
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
	ru := &reuseState{prev: prev, changed: changed}
	// ChangedIDs comes in ID order, so after does too.
	for _, id := range append(delta.ChangedIDs(), delta.Removed...) {
		if changed[id] {
			continue
		}
		changed[id] = true
		if e := prev.Original.ByID(id); e != nil {
			ru.before = append(ru.before, e)
		}
		if e := merged.ByID(id); e != nil {
			ru.after = append(ru.after, e)
		} else {
			ru.removed = append(ru.removed, id)
		}
	}
	res, err := runClean(ctx, merged, opts, ru)
	if errors.Is(err, predict.ErrUntrainable) && !delta.Empty() {
		return nil, fmt.Errorf("%w: %w", ErrBadDelta, err)
	}
	return res, err
}

// ErrBadDelta marks a CleanDelta error that the delta alone causes: an
// added entry out of ID order, with a malformed ID, or naming a CVE the
// previous snapshot holds that the delta does not remove, or a delta
// that leaves no entry to clean or too few to train on.
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
// original snapshot, the §4.2 naming survey, the trained engine, and
// the incremental-reuse state (dataset fingerprint, training signature,
// per-entry crawl artifacts, the §4.4 corrections, backported scores).
// The cleaned view is not among them: RestoreResult re-derives it by
// running the stages over these. Building a checkpoint modifies
// nothing.
func (r *Result) StoreCheckpoint() *store.Checkpoint {
	st := r.inc.State
	if r.Backport != nil {
		st.Backport = r.Backport.Scores
	}
	return &store.Checkpoint{
		Original: r.Original,
		Survey:   r.inc.survey,
		Engine:   r.Engine,
		State:    &st,
	}
}

// RestoreResult rebuilds a servable, delta-cleanable Result from a
// persisted checkpoint. It is CleanDelta of an empty delta on the
// Result the checkpoint records, so the Result equals Clean(ctx,
// cp.Original, opts) whatever options the checkpoint was committed
// under:
//
//   - given a transport, the crawl replays the persisted artifacts and
//     crawls only the entries without one; without a transport it does
//     not run;
//   - the naming stages carry the checkpoint's survey over; a
//     checkpoint without one, as an older build wrote, is surveyed from
//     scratch;
//   - the CWE stage replays the persisted §4.4 corrections;
//   - severity keeps the checkpoint's engine and scores when the
//     dataset fingerprint and opts' models, model config and seed match
//     the checkpoint's, retrains otherwise, and does not run under
//     SkipSeverity.
//
// Under the options the checkpoint was committed with, a restore
// crawls and trains nothing. Its signature takes no context, so it runs
// under the equivalent of context.Background(): nothing, not even a
// daemon's SIGINT, interrupts a crawl or a retrain that changed options
// force.
func RestoreResult(cp *store.Checkpoint, opts Options) (*Result, error) {
	if cp == nil || cp.Original == nil || cp.State == nil {
		return nil, errors.New("nvdclean: incomplete checkpoint")
	}
	prev := &Result{
		Original: cp.Original,
		Engine:   cp.Engine,
		Backport: &predict.Backport{Scores: cp.State.Backport},
		inc:      &incState{State: *cp.State, survey: cp.Survey},
	}
	return CleanDelta(context.TODO(), prev, nil, opts)
}

// ApplyBackport materializes backported severity scores into the
// snapshot's PV3 extension field, returning the number of entries
// annotated. Entries with a real v3 vector are left alone, matching the
// paper's pv3 scoring (real v3 when present, predicted otherwise).
// Every Result's cleaned view, restored ones included, already carries
// its scores, as the run settles them after the severity stage:
// readers take them from Entry.PV3 (Entry.SeverityPV3 for the band),
// and WriteFeed exports them under the backportedV3 key. A score
// already materialized is not rewritten, so applying a Result's own
// scores to its view again writes nothing and allocates nothing; the
// scores it does write share one block.
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
					block = make([]float64, 0, min(len(b.Scores), len(snap.Entries)))
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
