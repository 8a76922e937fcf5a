// Vendor audit (§4.2): find inconsistent vendor and product names in a
// snapshot, consolidate them, and show how the corrections change the
// top-vendor rankings — then carry the NVD-derived map over to the
// simulated SecurityFocus and SecurityTracker databases as in Table 3.
package main

import (
	"fmt"
	"log"
	"os"

	"nvdclean/internal/analysis"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/otherdb"
	"nvdclean/internal/report"
)

func main() {
	log.SetFlags(0)

	snap, truth, uni, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d distinct vendor names\n\n", snap.DistinctVendors())

	// Survey candidate pairs with the §4.2 heuristics.
	va := naming.AnalyzeVendorsN(snap, 0)
	fmt.Printf("candidate vendor pairs: %d\n", len(va.Pairs))
	fmt.Println("examples:")
	shown := 0
	judge := naming.HeuristicJudge{}
	for i := range va.Pairs {
		p := &va.Pairs[i]
		if !judge.SameVendor(p) {
			continue
		}
		fmt.Printf("  %-28s ~ %-28s %v (LCS=%d, #MP=%d)\n", p.A, p.B, p.Patterns, p.LCS, p.MatchingProducts)
		if shown++; shown >= 8 {
			break
		}
	}

	// Pattern taxonomy against ground truth (Table 2).
	fmt.Println()
	table2 := naming.BuildTable2(va, naming.OracleJudge{Canonical: truth.CanonicalVendor})
	if err := report.Table2(os.Stdout, table2); err != nil {
		log.Fatal(err)
	}

	// Consolidate and rewrite.
	before := analysis.TopVendorsByCVE(snap, 10)
	m := va.Consolidate(judge)
	changed := m.Apply(snap)
	fmt.Printf("\nconsolidated %d names onto %d canonical vendors (%d CVEs rewritten)\n",
		m.Len(), len(m.Targets()), changed)

	pa := naming.AnalyzeProductsN(snap, 0)
	pm := pa.Consolidate(naming.HeuristicProductJudge{})
	pm.Apply(snap)
	fmt.Printf("consolidated %d product names across %d vendors\n\n",
		pm.Len(), len(pm.Vendors()))

	after := analysis.TopVendorsByCVE(snap, 10)
	fmt.Println("top vendors by CVE count (after <- before):")
	for i := range after {
		b := "-"
		for _, v := range before {
			if v.Vendor == after[i].Vendor {
				b = fmt.Sprintf("%d", v.Count)
			}
		}
		fmt.Printf("  %2d. %-20s %5d <- %s\n", i+1, after[i].Vendor, after[i].Count, b)
	}

	// Cross-database application (Table 3).
	fmt.Println("\napplying the NVD vendor map to other databases:")
	for _, cfg := range []otherdb.Config{otherdb.DefaultSF(), otherdb.DefaultST()} {
		db := otherdb.Build(uni, cfg)
		st := db.ApplyVendorMap(m)
		fmt.Printf("  %s: %d names, %d inconsistent (%.1f%%), %d consolidation targets\n",
			st.Kind, st.Names, st.Impacted,
			100*float64(st.Impacted)/float64(st.Names), st.Consolidated)
	}
}
