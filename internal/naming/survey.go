package naming

import (
	"cmp"
	"maps"
	"slices"
	"strings"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
)

// Survey is the §4.2 naming survey of one snapshot, kept so that the
// survey of the next snapshot in a feed costs what the delta between
// them changes. It holds the tallies both analyses read — CVEs per
// vendor and per (vendor, product) over the names as given, and CVEs
// per (vendor, product) under the vendor consolidation — and the
// analyses built from them. Candidate pairs are a pure function of the
// name sets, and a vendor's product pairs of its catalog, so a survey
// derived with Next re-blocks only when names appear or disappear.
//
// Run AnalyzeVendors, then AnalyzeProducts with the vendor map
// consolidated from it. A completed survey is read-only: deriving the
// next one copies whatever it changes, so one survey can seed several
// derivations concurrently. WriteJSON persists a completed survey, and
// ReadSurveyJSON loads it.
type Survey struct {
	// pairs counts CVEs per (vendor, product) as named.
	pairs map[[2]string]int
	// vendors is the vendor analysis; its CVECount is the tally of
	// CVEs per vendor name.
	vendors *VendorAnalysis
	// products is the product analysis under vendorMap; its CVECount
	// is the tally of CVEs per consolidated (vendor, product).
	products  *ProductAnalysis
	vendorMap *Map

	// Until AnalyzeProducts completes the survey: the snapshot
	// surveyed and, for a derived survey, the survey it derives from
	// with the entries the delta took away (before) and brought
	// (after).
	snap          *cve.Snapshot
	prev          *Survey
	before, after []*cve.Entry
}

// NewSurvey starts the survey of snap from scratch.
func NewSurvey(snap *cve.Snapshot) *Survey {
	return &Survey{snap: snap}
}

// Next starts the survey of snap, the snapshot s surveyed with the
// entries before replaced by the entries after, from s. Every other
// entry must be the same in both snapshots, and s must be complete; s
// is not modified.
func (s *Survey) Next(snap *cve.Snapshot, before, after []*cve.Entry) *Survey {
	return &Survey{snap: snap, prev: s, before: before, after: after}
}

// AnalyzeVendors returns the vendor analysis of the surveyed snapshot,
// equal to AnalyzeVendorsN's. A derived survey counts only the delta's
// entries; when no (vendor, product) pair appears or disappears — and
// so no vendor name either — the candidate pairs carry over, and
// otherwise blocking re-runs over every name with the previous pairs'
// scores reused. When in addition no vendor tally moves, as on an edit
// that renames nothing, it returns the previous survey's analysis
// itself, so the consolidation of that analysis still holds.
func (s *Survey) AnalyzeVendors(workers int) *VendorAnalysis {
	p := s.prev
	if p == nil {
		s.pairs = tally(s.snap.Entries, namedPair, comparePairs)
		s.vendors = analyzeVendors(tally(s.snap.Entries, vendorName, strings.Compare), s.pairs, workers, nil)
		return s.vendors
	}
	counts, _, countsMoved := recount(p.vendors.CVECount, s.before, s.after, vendorName, strings.Compare)
	var moved [][2]string
	s.pairs, moved, _ = recount(p.pairs, s.before, s.after, namedPair, comparePairs)
	switch {
	case len(moved) > 0:
		s.vendors = analyzeVendors(counts, s.pairs, workers, p.vendors)
	case countsMoved:
		s.vendors = &VendorAnalysis{Pairs: p.vendors.Pairs, CVECount: counts, Products: p.vendors.Products}
	default:
		s.vendors = p.vendors
	}
	return s.vendors
}

// AnalyzeProducts returns the product analysis of the surveyed
// snapshot with its vendor names rewritten by vm, equal to
// AnalyzeProductsN's of the rewritten snapshot, and completes the
// survey. Under the previous survey's vendor map a derived survey
// counts only the delta's entries, and returns the previous analysis
// itself when no tally moves; under a new one it recounts the
// snapshot. Either way only vendors whose catalog gained or lost a
// product are surveyed again, and every other vendor keeps its pairs.
func (s *Survey) AnalyzeProducts(vm *Map, workers int) *ProductAnalysis {
	p := s.prev
	if p == nil {
		s.products = analyzeProducts(tally(s.snap.Entries, vm.pair, comparePairs), workers, nil, nil)
	} else {
		var counts map[[2]string]int
		var moved [][2]string
		countsMoved := true
		if p.vendorMap == vm || maps.Equal(p.vendorMap.forward, vm.forward) {
			counts, moved, countsMoved = recount(p.products.CVECount, s.before, s.after, vm.pair, comparePairs)
		} else {
			counts = tally(s.snap.Entries, vm.pair, comparePairs)
			moved = keysMoved(p.products.CVECount, counts)
		}
		switch {
		case len(moved) > 0:
			changed := make(map[string]bool)
			for _, k := range moved {
				changed[k[0]] = true
			}
			s.products = analyzeProducts(counts, workers, p.products.Pairs, changed)
		case countsMoved:
			s.products = &ProductAnalysis{Pairs: p.products.Pairs, CVECount: counts}
		default:
			s.products = p.products
		}
	}
	s.vendorMap = vm
	// Let the previous generation go.
	s.snap, s.prev, s.before, s.after = nil, nil, nil, nil
	return s.products
}

// VendorAnalysis returns the analysis AnalyzeVendors last returned,
// nil before it runs.
func (s *Survey) VendorAnalysis() *VendorAnalysis { return s.vendors }

// ProductAnalysis returns the analysis AnalyzeProducts last returned,
// nil before it runs.
func (s *Survey) ProductAnalysis() *ProductAnalysis { return s.products }

func vendorName(n cpe.Name) string   { return n.Vendor }
func namedPair(n cpe.Name) [2]string { return [2]string{n.Vendor, n.Product} }

// pair is a name's (vendor, product) under the vendor consolidation.
func (m *Map) pair(n cpe.Name) [2]string { return [2]string{m.Canonical(n.Vendor), n.Product} }

func comparePairs(a, b [2]string) int {
	return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
}

// tally counts, per key, the entries with a CPE name yielding it. An
// entry counts once per key however many of its names yield it: its
// keys are sorted with compare and each distinct one counted, so an
// entry of k names costs O(k log k).
func tally[K comparable](entries []*cve.Entry, key func(cpe.Name) K, compare func(a, b K) int) map[K]int {
	counts := make(map[K]int)
	var keys []K
	for _, e := range entries {
		keys = keys[:0]
		for _, n := range e.CPEs {
			keys = append(keys, key(n))
		}
		if len(keys) > 1 {
			slices.SortFunc(keys, compare)
			keys = slices.Compact(keys)
		}
		for _, k := range keys {
			counts[k]++
		}
	}
	return counts
}

// recount returns counts with the entries before replaced by the
// entries after, the keys that appeared or disappeared, and whether
// any count moved. It returns counts itself when none did and a copy
// otherwise, so counts is never modified.
func recount[K comparable](counts map[K]int, before, after []*cve.Entry, key func(cpe.Name) K, compare func(a, b K) int) (map[K]int, []K, bool) {
	net := tally(after, key, compare)
	for k, n := range tally(before, key, compare) {
		net[k] -= n
	}
	out, copied := counts, false
	var moved []K
	for k, d := range net {
		if d == 0 {
			continue
		}
		if !copied {
			out, copied = maps.Clone(counts), true
		}
		n := out[k] + d
		if n == 0 {
			delete(out, k)
		} else {
			out[k] = n
		}
		if n == 0 || n == d {
			moved = append(moved, k)
		}
	}
	return out, moved, copied
}

// keysMoved returns the keys present in exactly one of a and b.
func keysMoved(a, b map[[2]string]int) [][2]string {
	var moved [][2]string
	for k := range a {
		if _, ok := b[k]; !ok {
			moved = append(moved, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			moved = append(moved, k)
		}
	}
	return moved
}
