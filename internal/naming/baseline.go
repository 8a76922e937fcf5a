package naming

import (
	"sort"
	"strings"

	"nvdclean/internal/cve"
)

// DongBaseline implements the product-matching heuristic of Dong et al.
// (USENIX Security 2019) as the paper describes it in §4.2: "their
// heuristic was to split product names by white spaces into words, and
// label two products as matching if they shared words." The paper notes
// it "does not account for abbreviations or special character
// separators, and yields false positives when different products share
// similar words (e.g., Microsoft's Internet Explorer and Internet
// Information Services)". The ablation bench quantifies exactly that.
type DongBaseline struct{}

// Pairs returns all product pairs under each vendor that the baseline
// labels as matching.
func (DongBaseline) Pairs(snap *cve.Snapshot) []ProductPair {
	perVendor := make(map[string]map[string]struct{})
	for _, e := range snap.Entries {
		for _, n := range e.CPEs {
			set := perVendor[n.Vendor]
			if set == nil {
				set = make(map[string]struct{})
				perVendor[n.Vendor] = set
			}
			set[n.Product] = struct{}{}
		}
	}
	vendors := make([]string, 0, len(perVendor))
	for v := range perVendor {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)

	var out []ProductPair
	for _, vendor := range vendors {
		set := perVendor[vendor]
		products := make([]string, 0, len(set))
		for p := range set {
			products = append(products, p)
		}
		sort.Strings(products)
		// Index by word: only whitespace splitting, per the original
		// heuristic.
		byWord := make(map[string][]string)
		for _, p := range products {
			for _, w := range strings.Fields(p) {
				byWord[w] = append(byWord[w], p)
			}
		}
		type key [2]string
		seen := make(map[key]bool)
		for _, group := range byWord {
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					a, b := group[i], group[j]
					if a > b {
						a, b = b, a
					}
					k := key{a, b}
					if seen[k] {
						continue
					}
					seen[k] = true
					out = append(out, ProductPair{Vendor: vendor, A: a, B: b})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Vendor != b.Vendor {
			return a.Vendor < b.Vendor
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return out
}

// CompareBaseline scores ours and Dong's product matching against an
// oracle, returning (truePositives, falsePositives) per method. It is
// the quantitative version of the paper's qualitative comparison.
func CompareBaseline(snap *cve.Snapshot, oracle OracleProductJudge) (ours, dong struct{ TP, FP int }) {
	pa := AnalyzeProductsN(snap, 0)
	judge := HeuristicProductJudge{}
	for i := range pa.Pairs {
		p := &pa.Pairs[i]
		if !judge.SameProduct(p) {
			continue
		}
		if oracle.SameProduct(p) {
			ours.TP++
		} else {
			ours.FP++
		}
	}
	for _, p := range (DongBaseline{}).Pairs(snap) {
		p := p
		if oracle.SameProduct(&p) {
			dong.TP++
		} else {
			dong.FP++
		}
	}
	return ours, dong
}
