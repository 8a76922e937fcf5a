package naming

import (
	"maps"
	"slices"
	"sort"
	"unicode"

	"nvdclean/internal/cve"
	"nvdclean/internal/parallel"
	"nvdclean/internal/textnorm"
)

// ProductPair is a candidate matching product-name pair under one
// vendor.
type ProductPair struct {
	Vendor string
	// A, B are the two product names, A < B lexically.
	A, B string
	// Patterns that flagged the pair: PatternTokens (identical
	// tokenization), PatternAbbrev, or PatternEdit.
	Patterns []Pattern
	// AbbrevExpansions is, for abbreviation pairs, the number of
	// multi-component products under the vendor sharing the
	// abbreviation. An analyst would not resolve "as" to one product
	// when a dozen expand to it.
	AbbrevExpansions int
}

// HasPattern reports whether p was flagged on the pair.
func (pp *ProductPair) HasPattern(p Pattern) bool {
	for _, q := range pp.Patterns {
		if q == p {
			return true
		}
	}
	return false
}

// ProductAnalysis holds the §4.2 product-name survey, which runs after
// vendor consolidation ("After consolidating vendor names, we
// identified likely matching product names under the same consolidated
// vendor").
type ProductAnalysis struct {
	Pairs []ProductPair
	// CVECount maps (vendor, product) to CVE count for canonical
	// selection.
	CVECount map[[2]string]int
}

// AnalyzeProductsN surveys product names per vendor using the §4.2
// heuristics: identical tokenization (internet-explorer vs
// internet_explorer), first-character abbreviation (ie), and edit
// distance 1 (human-error typos). Vendors are analyzed with up to
// workers workers (zero means GOMAXPROCS). It tallies the snapshot's
// names, then analyzes the tallies.
func AnalyzeProductsN(snap *cve.Snapshot, workers int) *ProductAnalysis {
	return analyzeProducts(tally(snap.Entries, namedPair, comparePairs), workers, nil, nil)
}

// analyzeProducts surveys the (vendor, product) names counts counts
// CVEs for. Vendors are mutually independent — every heuristic blocks
// within one vendor's catalog — so each worker surveys whole vendors,
// writing its sorted pair block into the vendor's slot, and the blocks
// concatenate in sorted-vendor order into the (Vendor, A, B)-sorted
// pair list at any concurrency. With changed non-nil only the vendors
// it marks are surveyed, and every other vendor keeps its block from
// prev, the pairs of an earlier analysis: a block is a pure function
// of the vendor's catalog.
func analyzeProducts(counts map[[2]string]int, workers int, prev []ProductPair, changed map[string]bool) *ProductAnalysis {
	catalogs := make(map[string][]string)
	for k := range counts {
		if changed == nil || changed[k[0]] {
			catalogs[k[0]] = append(catalogs[k[0]], k[1])
		}
	}
	vendors := slices.Sorted(maps.Keys(catalogs))
	blocks := make([][]ProductPair, len(vendors))
	parallel.For(workers, len(vendors), func(vi int) {
		products := catalogs[vendors[vi]]
		slices.Sort(products)
		blocks[vi] = surveyCatalog(vendors[vi], products)
	})
	return &ProductAnalysis{Pairs: splice(prev, changed, vendors, blocks), CVECount: counts}
}

// splice returns the pairs of prev whose vendor changed does not mark,
// with blocks, the new blocks of the sorted vendors, merged in by
// vendor order.
func splice(prev []ProductPair, changed map[string]bool, vendors []string, blocks [][]ProductPair) []ProductPair {
	n := len(prev)
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]ProductPair, 0, n)
	i := 0
	for _, pp := range prev {
		if changed[pp.Vendor] {
			continue
		}
		for ; i < len(vendors) && vendors[i] < pp.Vendor; i++ {
			out = append(out, blocks[i]...)
		}
		out = append(out, pp)
	}
	for ; i < len(vendors); i++ {
		out = append(out, blocks[i]...)
	}
	return out
}

// surveyCatalog returns the candidate pairs among one vendor's
// products, given sorted, sorted by (A, B).
func surveyCatalog(vendor string, products []string) []ProductPair {
	type key [2]string
	cand := make(map[key]map[Pattern]struct{})
	add := func(a, b string, p Pattern) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := key{a, b}
		s := cand[k]
		if s == nil {
			s = make(map[Pattern]struct{}, 2)
			cand[k] = s
		}
		s[p] = struct{}{}
	}

	// Heuristic 1: identical tokenization.
	byTokens := make(map[string][]string)
	for _, p := range products {
		t := textnorm.CanonicalTokens(p)
		if t == "" {
			continue
		}
		byTokens[t] = append(byTokens[t], p)
	}
	for _, group := range byTokens {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				add(group[i], group[j], PatternTokens)
			}
		}
	}

	// Heuristic 2: abbreviation of a multi-component name equals a
	// single-component name.
	nameSet := make(map[string]bool, len(products))
	for _, p := range products {
		nameSet[p] = true
	}
	// Expansions are counted by canonical tokenization, so separator
	// variants of one product ("internet_explorer",
	// "internet-explorer") count as a single expansion of "ie".
	abbrevSets := make(map[string]map[string]struct{})
	for _, p := range products {
		if ab := textnorm.Abbreviation(p); len(ab) >= 2 {
			set := abbrevSets[ab]
			if set == nil {
				set = make(map[string]struct{})
				abbrevSets[ab] = set
			}
			set[textnorm.CanonicalTokens(p)] = struct{}{}
		}
	}
	abbrevCount := make(map[string]int, len(abbrevSets))
	for ab, set := range abbrevSets {
		abbrevCount[ab] = len(set)
	}
	for _, p := range products {
		if ab := textnorm.Abbreviation(p); len(ab) >= 2 && nameSet[ab] {
			add(p, ab, PatternAbbrev)
		}
	}

	// Heuristic 3: edit distance 1 via deletion signatures.
	sig := make(map[string][]string)
	for _, p := range products {
		sig[p] = append(sig[p], p)
		for i := 0; i < len(p); i++ {
			s := p[:i] + p[i+1:]
			sig[s] = append(sig[s], p)
		}
	}
	for _, group := range sig {
		if len(group) < 2 {
			continue
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if a != b && textnorm.WithinEditDistance(a, b, 1) {
					add(a, b, PatternEdit)
				}
			}
		}
	}

	pairs := make([]ProductPair, 0, len(cand))
	for k, patterns := range cand {
		pp := ProductPair{Vendor: vendor, A: k[0], B: k[1]}
		for p := range patterns {
			pp.Patterns = append(pp.Patterns, p)
		}
		sort.Slice(pp.Patterns, func(i, j int) bool { return pp.Patterns[i] < pp.Patterns[j] })
		if pp.HasPattern(PatternAbbrev) {
			// The single-component side is the abbreviation.
			ab := pp.A
			if len(pp.B) < len(ab) {
				ab = pp.B
			}
			pp.AbbrevExpansions = abbrevCount[ab]
		}
		pairs = append(pairs, pp)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// ProductJudge decides whether a candidate product pair names the same
// product.
type ProductJudge interface {
	SameProduct(p *ProductPair) bool
}

// HeuristicProductJudge automates the paper's manual verification:
// tokenization-identical and abbreviation pairs are confirmed; edit-
// distance-1 pairs are confirmed only when the difference is
// alphabetic, because digit differences are usually genuinely different
// products (the paper's ucs-e160dp-m1_firmware vs ucs-e140dp-m1_firmware
// example) while letter slips are typos (tbe_banner_engine vs
// the_banner_engine).
type HeuristicProductJudge struct{}

// SameProduct implements ProductJudge.
func (HeuristicProductJudge) SameProduct(p *ProductPair) bool {
	if p.HasPattern(PatternTokens) {
		return true
	}
	// Abbreviations resolve only when exactly one product under the
	// vendor expands to them ("ie" for internet_explorer), mirroring the
	// paper's manual disambiguation.
	if p.HasPattern(PatternAbbrev) && p.AbbrevExpansions == 1 {
		return true
	}
	if p.HasPattern(PatternEdit) {
		// Two-character names at distance 1 carry no evidence, and
		// digit differences are product lines, not typos.
		return minLen(p.A, p.B) >= 5 && !digitDifference(p.A, p.B)
	}
	return false
}

// digitDifference reports whether the single-character difference
// between two edit-distance-1 names involves a digit.
func digitDifference(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	// i is the first divergence; check the characters at the edit site.
	if i < len(a) && unicode.IsDigit(rune(a[i])) {
		return true
	}
	if i < len(b) && unicode.IsDigit(rune(b[i])) {
		return true
	}
	return false
}

// OracleProductJudge scores against generator ground truth.
type OracleProductJudge struct {
	// Canonical maps (vendor, product) to the canonical product name.
	Canonical func(vendor, product string) string
}

// SameProduct implements ProductJudge.
func (o OracleProductJudge) SameProduct(p *ProductPair) bool {
	return o.Canonical(p.Vendor, p.A) == o.Canonical(p.Vendor, p.B)
}

// ProductMap maps (vendor, inconsistent product) to the consistent
// product name.
type ProductMap struct {
	forward map[[2]string]string
}

// Canonical resolves a product name under a vendor.
func (m *ProductMap) Canonical(vendor, product string) string {
	if c, ok := m.forward[[2]string{vendor, product}]; ok {
		return c
	}
	return product
}

// Len returns the number of remapped product names.
func (m *ProductMap) Len() int { return len(m.forward) }

// Changed returns the (vendor, product) names o resolves to another
// canonical product than m does, nil when the two maps are equal.
func (m *ProductMap) Changed(o *ProductMap) map[[2]string]bool {
	return changedKeys(m.forward, o.forward)
}

// Entries returns a copy of the (vendor, alias)→canonical mapping.
func (m *ProductMap) Entries() map[[2]string]string {
	out := make(map[[2]string]string, len(m.forward))
	for k, v := range m.forward {
		out[k] = v
	}
	return out
}

// Vendors returns the distinct vendors with at least one remapped
// product, sorted — the "#ven." column of Table 3.
func (m *ProductMap) Vendors() []string {
	set := make(map[string]struct{})
	for k := range m.forward {
		set[k[0]] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Consolidate builds the product map from confirmed pairs; the
// canonical name is the one with the most CVEs under that vendor.
func (pa *ProductAnalysis) Consolidate(judge ProductJudge) *ProductMap {
	parent := make(map[[2]string][2]string)
	var find func([2]string) [2]string
	find = func(x [2]string) [2]string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for i := range pa.Pairs {
		pp := &pa.Pairs[i]
		if !judge.SameProduct(pp) {
			continue
		}
		ka, kb := [2]string{pp.Vendor, pp.A}, [2]string{pp.Vendor, pp.B}
		ra, rb := find(ka), find(kb)
		if ra != rb {
			parent[ra] = rb
		}
	}
	groups := make(map[[2]string][][2]string)
	for k := range parent {
		groups[find(k)] = append(groups[find(k)], k)
	}
	forward := make(map[[2]string]string)
	for root, members := range groups {
		if find(root) != root {
			continue
		}
		members = append(members, root)
		sort.Slice(members, func(i, j int) bool { return members[i][1] < members[j][1] })
		canonical := members[0]
		for _, m := range members {
			if pa.CVECount[m] > pa.CVECount[canonical] {
				canonical = m
			}
		}
		for _, m := range members {
			if m != canonical {
				forward[m] = canonical[1]
			}
		}
	}
	return &ProductMap{forward: forward}
}

// Apply rewrites product names through the map, returning the number of
// CVEs touched.
func (m *ProductMap) Apply(snap *cve.Snapshot) int {
	changed := 0
	for _, e := range snap.Entries {
		touched := false
		for i := range e.CPEs {
			k := [2]string{e.CPEs[i].Vendor, e.CPEs[i].Product}
			if c, ok := m.forward[k]; ok {
				e.CPEs[i].Product = c
				touched = true
			}
		}
		if touched {
			changed++
		}
	}
	return changed
}
