// Package naming implements the vendor- and product-name inconsistency
// study of §4.2: heuristic candidate-pair generation (shared tokens,
// shared products, product-as-vendor, prefix), the Table 2 pattern
// taxonomy, a pluggable confirmation step standing in for the paper's
// manual vetting, consolidation of matching names under the name with
// the most CVEs, and snapshot rewriting. It also ships the Dong et al.
// word-overlap baseline the paper compares against.
package naming

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"nvdclean/internal/cve"
	"nvdclean/internal/parallel"
	"nvdclean/internal/textnorm"
)

// Pattern labels one Table 2 inconsistency pattern observed on a pair.
type Pattern string

// Table 2 patterns.
const (
	// PatternTokens marks names identical except for special characters.
	PatternTokens Pattern = "tokens"
	// PatternSharedProduct marks vendor pairs associated with the same
	// product name (#MP).
	PatternSharedProduct Pattern = "shared-product"
	// PatternProductAsVendor marks one vendor name that is a product of
	// the other (PaV).
	PatternProductAsVendor Pattern = "product-as-vendor"
	// PatternPrefix marks one name being a strict prefix of the other.
	PatternPrefix Pattern = "prefix"
	// PatternEdit marks names within edit distance 1 (misspellings).
	PatternEdit Pattern = "misspell"
	// PatternAbbrev marks an abbreviation relationship (lms vs
	// lan_management_system).
	PatternAbbrev Pattern = "abbrev"
)

// VendorPair is a candidate inconsistent vendor-name pair with its
// matched patterns and the signals Table 2 splits on.
type VendorPair struct {
	// A, B are the two names, with A < B lexically.
	A, B string
	// Patterns are the heuristics that flagged the pair.
	Patterns []Pattern
	// LCS is the longest-common-substring length.
	LCS int
	// MatchingProducts is the number of product names both vendors
	// list (#MP).
	MatchingProducts int
	// SmallerCatalog is the product-catalog size of the vendor with
	// fewer products; shared-product evidence is judged relative to it.
	SmallerCatalog int
}

// HasPattern reports whether p was flagged on the pair.
func (vp *VendorPair) HasPattern(p Pattern) bool {
	for _, q := range vp.Patterns {
		if q == p {
			return true
		}
	}
	return false
}

// VendorAnalysis holds the vendor-name survey of one snapshot.
type VendorAnalysis struct {
	// Pairs are the candidate matching pairs found by the heuristics,
	// sorted by (A, B).
	Pairs []VendorPair
	// CVECount maps each vendor name to its number of CVEs.
	CVECount map[string]int
	// Products maps each vendor name to its distinct product set.
	Products map[string]map[string]struct{}
}

// AnalyzeVendorsN surveys a snapshot and generates candidate pairs
// with the §4.2 vendor heuristics, scoring pairs with up to workers
// workers (zero means GOMAXPROCS). It tallies the snapshot's names,
// then analyzes the tallies.
func AnalyzeVendorsN(snap *cve.Snapshot, workers int) *VendorAnalysis {
	return analyzeVendors(tally(snap.Entries, vendorName, strings.Compare), tally(snap.Entries, namedPair, comparePairs), workers, nil)
}

// analyzeVendors surveys the vendor names vendorCVEs counts CVEs for,
// with pairCVEs counting CVEs per (vendor, product). Candidate
// generation uses pure blocking strategies to stay far from O(V²) —
// names are bucketed by stripped form, deletion signature,
// abbreviation, product, and a sorted-prefix scan — and the surviving
// candidates are scored (LCS, shared-product counts) in parallel, each
// pair writing only its own slot of the sorted pair list, so the
// analysis is identical at any concurrency. A pair that prev, an
// earlier analysis, already scored keeps its LCS, a pure function of
// the two names; prev may be nil.
func analyzeVendors(vendorCVEs map[string]int, pairCVEs map[[2]string]int, workers int, prev *VendorAnalysis) *VendorAnalysis {
	va := &VendorAnalysis{CVECount: vendorCVEs, Products: productSets(pairCVEs, len(vendorCVEs))}
	names := make([]string, 0, len(va.CVECount))
	for name := range va.CVECount {
		names = append(names, name)
	}
	sort.Strings(names)

	type pairKey [2]string
	cand := make(map[pairKey]map[Pattern]struct{})
	addPair := func(a, b string, p Pattern) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := pairKey{a, b}
		set := cand[k]
		if set == nil {
			set = make(map[Pattern]struct{}, 2)
			cand[k] = set
		}
		set[p] = struct{}{}
	}

	// 1. Tokens: identical after removing special characters.
	stripped := make(map[string][]string)
	for _, n := range names {
		s := textnorm.StripSpecial(n)
		if s == "" {
			continue
		}
		stripped[s] = append(stripped[s], n)
	}
	for _, group := range stripped {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				addPair(group[i], group[j], PatternTokens)
			}
		}
	}

	// 2. Prefix: sorted-order scan; every name is checked against the
	// following names that extend it.
	for i, n := range names {
		for j := i + 1; j < len(names); j++ {
			if !strings.HasPrefix(names[j], n) {
				break
			}
			addPair(n, names[j], PatternPrefix)
		}
	}

	// 3. Misspellings: deletion-signature blocking finds all pairs
	// within edit distance 1 without quadratic scans.
	sig := make(map[string][]string)
	addSig := func(s, name string) { sig[s] = append(sig[s], name) }
	for _, n := range names {
		addSig(n, n)
		for i := 0; i < len(n); i++ {
			addSig(n[:i]+n[i+1:], n)
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
					addPair(a, b, PatternEdit)
				}
			}
		}
	}

	// 4. Abbreviations: initials of multi-token names matched against
	// existing single-token names.
	nameSet := make(map[string]bool, len(names))
	for _, n := range names {
		nameSet[n] = true
	}
	for _, n := range names {
		// Two-letter initials collide across unrelated vendors; demand
		// three or more, like the paper's lan_management_system -> lms.
		if ab := textnorm.Abbreviation(n); len(ab) >= 3 && nameSet[ab] {
			addPair(n, ab, PatternAbbrev)
		}
	}

	// 5. Shared products (#MP): vendors listing the same product name.
	byProduct := make(map[string][]string)
	for vendor, prods := range va.Products {
		for p := range prods {
			byProduct[p] = append(byProduct[p], vendor)
		}
	}
	for _, vendors := range byProduct {
		if len(vendors) < 2 || len(vendors) > 25 {
			// Very popular product names ("firmware") join unrelated
			// vendors; the paper's manual stage discarded those floods.
			continue
		}
		sort.Strings(vendors)
		for i := 0; i < len(vendors); i++ {
			for j := i + 1; j < len(vendors); j++ {
				addPair(vendors[i], vendors[j], PatternSharedProduct)
			}
		}
	}

	// 6. Product-as-vendor (PaV): a vendor name equal to some other
	// vendor's product name.
	for vendor, prods := range va.Products {
		for p := range prods {
			if p != vendor && nameSet[p] {
				addPair(vendor, p, PatternProductAsVendor)
			}
		}
	}

	// Materialize pairs with their signals. Scoring — the LCS dynamic
	// program dominates — fans out across workers: keys are sorted
	// first so slot i is pair i of the final (A, B)-ordered list, and
	// every worker writes only its own slots.
	keys := make([]pairKey, 0, len(cand))
	for k := range cand {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	va.Pairs = make([]VendorPair, len(keys))
	parallel.For(workers, len(keys), func(i int) {
		k := keys[i]
		vp := VendorPair{A: k[0], B: k[1]}
		for p := range cand[k] {
			vp.Patterns = append(vp.Patterns, p)
		}
		sort.Slice(vp.Patterns, func(a, b int) bool { return vp.Patterns[a] < vp.Patterns[b] })
		if lcs, ok := prev.lcs(k[0], k[1]); ok {
			vp.LCS = lcs
		} else {
			vp.LCS = textnorm.LongestCommonSubstring(k[0], k[1])
		}
		vp.MatchingProducts = countShared(va.Products[k[0]], va.Products[k[1]])
		vp.SmallerCatalog = len(va.Products[k[0]])
		if n := len(va.Products[k[1]]); n < vp.SmallerCatalog {
			vp.SmallerCatalog = n
		}
		va.Pairs[i] = vp
	})
	return va
}

// productSets returns each vendor's distinct products, given the CVEs
// per (vendor, product) and the number of vendors.
func productSets(pairCVEs map[[2]string]int, vendors int) map[string]map[string]struct{} {
	sets := make(map[string]map[string]struct{}, vendors)
	for k := range pairCVEs {
		set := sets[k[0]]
		if set == nil {
			set = make(map[string]struct{})
			sets[k[0]] = set
		}
		set[k[1]] = struct{}{}
	}
	return sets
}

// lcs returns the LCS score of the candidate pair (a, b), a < b, when
// the analysis holds that pair; va may be nil.
func (va *VendorAnalysis) lcs(a, b string) (int, bool) {
	if va == nil {
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(va.Pairs, [2]string{a, b}, func(p VendorPair, k [2]string) int {
		return cmp.Or(strings.Compare(p.A, k[0]), strings.Compare(p.B, k[1]))
	})
	if !ok {
		return 0, false
	}
	return va.Pairs[i].LCS, true
}

func countShared(a, b map[string]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for p := range a {
		if _, ok := b[p]; ok {
			n++
		}
	}
	return n
}

// Map is a name-consolidation mapping from inconsistent names to their
// consistent (canonical) form.
type Map struct {
	forward map[string]string
}

// NewMap wraps a ready mapping (used by tests and cross-database
// application).
func NewMap(m map[string]string) *Map {
	return &Map{forward: m}
}

// Canonical resolves a name, returning the input when unmapped.
func (m *Map) Canonical(name string) string {
	if c, ok := m.forward[name]; ok {
		return c
	}
	return name
}

// Len returns the number of remapped names.
func (m *Map) Len() int { return len(m.forward) }

// Mapped reports whether name has a canonical form different from
// itself.
func (m *Map) Mapped(name string) bool {
	_, ok := m.forward[name]
	return ok
}

// Changed returns the names o resolves to another canonical name than
// m does, nil when the two maps are equal.
func (m *Map) Changed(o *Map) map[string]bool { return changedKeys(m.forward, o.forward) }

// changedKeys returns the keys a and b map differently, a key absent
// from one map counting as mapped to itself; nil when there are none.
func changedKeys[K comparable](a, b map[K]string) map[K]bool {
	var out map[K]bool
	note := func(k K) {
		if out == nil {
			out = make(map[K]bool)
		}
		out[k] = true
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			note(k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			note(k)
		}
	}
	return out
}

// Entries returns a copy of the alias→canonical mapping.
func (m *Map) Entries() map[string]string {
	out := make(map[string]string, len(m.forward))
	for k, v := range m.forward {
		out[k] = v
	}
	return out
}

// Targets returns the distinct canonical names, sorted.
func (m *Map) Targets() []string {
	set := make(map[string]struct{})
	for _, c := range m.forward {
		set[c] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Consolidate turns confirmed pairs into a Map: matching names are
// grouped with union-find and each group's canonical name is the one
// with the most associated CVEs (§4.2: "we considered the one with the
// most associated CVEs as the consistent name").
func (va *VendorAnalysis) Consolidate(judge Judge) *Map {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := range va.Pairs {
		vp := &va.Pairs[i]
		if judge.SameVendor(vp) {
			union(vp.A, vp.B)
		}
	}
	groups := make(map[string][]string)
	for name := range parent {
		root := find(name)
		groups[root] = append(groups[root], name)
	}
	forward := make(map[string]string)
	for root, members := range groups {
		if find(root) != root {
			continue
		}
		members = append(members, root)
		sort.Strings(members)
		canonical := members[0]
		for _, m := range members {
			if va.CVECount[m] > va.CVECount[canonical] {
				canonical = m
			}
		}
		for _, m := range members {
			if m != canonical {
				forward[m] = canonical
			}
		}
	}
	return &Map{forward: forward}
}

// Apply rewrites every CPE vendor in the snapshot through the map,
// returning the number of CVEs touched.
func (m *Map) Apply(snap *cve.Snapshot) int {
	changed := 0
	for _, e := range snap.Entries {
		touched := false
		for i := range e.CPEs {
			if c, ok := m.forward[e.CPEs[i].Vendor]; ok {
				e.CPEs[i].Vendor = c
				touched = true
			}
		}
		if touched {
			changed++
		}
	}
	return changed
}
