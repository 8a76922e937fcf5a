package naming

import (
	"testing"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// buildSnapshot assembles a snapshot from (vendor, product) rows, one
// CVE per row repeated count times.
func buildSnapshot(rows []struct {
	vendor, product string
	count           int
}) *cve.Snapshot {
	snap := &cve.Snapshot{}
	seq := 1
	for _, r := range rows {
		for i := 0; i < r.count; i++ {
			snap.Entries = append(snap.Entries, &cve.Entry{
				ID:   cve.FormatID(2010, seq),
				CPEs: []cpe.Name{cpe.NewName(cpe.PartApplication, r.vendor, r.product, "1.0")},
			})
			seq++
		}
	}
	return snap
}

func paperSnapshot() *cve.Snapshot {
	return buildSnapshot([]struct {
		vendor, product string
		count           int
	}{
		{"microsoft", "internet_explorer", 30},
		{"microsoft", "windows", 20},
		{"microsft", "internet_explorer", 2}, // misspelling, shares a product
		{"bea", "weblogic_server", 17},
		{"bea_systems", "weblogic_server", 3}, // prefix + shared product
		{"avast", "antivirus", 8},
		{"avast!", "antivirus", 2}, // tokens
		{"lan_management_system", "lms_console", 5},
		{"lms", "lms_console", 2}, // abbreviation + shared product
		{"lynx", "lynx_browser", 6},
		{"lynx_project", "lynx_browser", 2}, // prefix
		{"windows", "media_player", 3},      // product-as-vendor (microsoft's windows)
		{"oracle", "database_server", 40},   // unrelated control
		{"ibm", "websphere", 25},            // unrelated control
	})
}

func TestAnalyzeVendorsFindsPaperPatterns(t *testing.T) {
	va := AnalyzeVendorsN(paperSnapshot(), 0)
	find := func(a, b string) *VendorPair {
		if a > b {
			a, b = b, a
		}
		for i := range va.Pairs {
			if va.Pairs[i].A == a && va.Pairs[i].B == b {
				return &va.Pairs[i]
			}
		}
		return nil
	}
	tests := []struct {
		a, b    string
		pattern Pattern
	}{
		{"microsoft", "microsft", PatternEdit},
		{"microsoft", "microsft", PatternSharedProduct},
		{"bea", "bea_systems", PatternPrefix},
		{"bea", "bea_systems", PatternSharedProduct},
		{"avast", "avast!", PatternTokens},
		{"lan_management_system", "lms", PatternAbbrev},
		{"lynx", "lynx_project", PatternPrefix},
		{"microsoft", "windows", PatternProductAsVendor},
	}
	for _, tt := range tests {
		p := find(tt.a, tt.b)
		if p == nil {
			t.Errorf("pair (%s, %s) not found", tt.a, tt.b)
			continue
		}
		if !p.HasPattern(tt.pattern) {
			t.Errorf("pair (%s, %s) missing pattern %s: has %v", tt.a, tt.b, tt.pattern, p.Patterns)
		}
	}
	// Control pair must not be flagged.
	if p := find("oracle", "ibm"); p != nil {
		t.Errorf("unrelated (oracle, ibm) flagged: %v", p.Patterns)
	}
}

func TestHeuristicJudge(t *testing.T) {
	va := AnalyzeVendorsN(paperSnapshot(), 0)
	judge := HeuristicJudge{}
	want := map[[2]string]bool{
		{"microsft", "microsoft"}:        true,
		{"bea", "bea_systems"}:           true,
		{"avast", "avast!"}:              true,
		{"lan_management_system", "lms"}: true,
		{"lynx", "lynx_project"}:         true,
		{"microsoft", "windows"}:         false, // LCS < 3 single pattern: microsoft's own product
	}
	for i := range va.Pairs {
		p := &va.Pairs[i]
		expect, ok := want[[2]string{p.A, p.B}]
		if !ok {
			continue
		}
		if got := judge.SameVendor(p); got != expect {
			t.Errorf("judge(%s, %s) = %v, want %v (patterns %v, LCS %d, MP %d)",
				p.A, p.B, got, expect, p.Patterns, p.LCS, p.MatchingProducts)
		}
	}
}

func TestConsolidateCanonicalByMostCVEs(t *testing.T) {
	va := AnalyzeVendorsN(paperSnapshot(), 0)
	m := va.Consolidate(HeuristicJudge{})
	tests := []struct{ alias, canonical string }{
		{"microsft", "microsoft"},
		{"bea_systems", "bea"},
		{"avast!", "avast"},
		{"lms", "lan_management_system"},
		{"lynx_project", "lynx"},
	}
	for _, tt := range tests {
		if got := m.Canonical(tt.alias); got != tt.canonical {
			t.Errorf("Canonical(%s) = %s, want %s", tt.alias, got, tt.canonical)
		}
	}
	// Canonical names map to themselves.
	if m.Mapped("microsoft") {
		t.Error("canonical name must not be remapped")
	}
	if got := m.Canonical("unrelated"); got != "unrelated" {
		t.Errorf("unmapped name = %s", got)
	}
}

func TestApplyRewritesSnapshot(t *testing.T) {
	snap := paperSnapshot()
	va := AnalyzeVendorsN(snap, 0)
	m := va.Consolidate(HeuristicJudge{})
	changed := m.Apply(snap)
	if changed == 0 {
		t.Fatal("Apply touched nothing")
	}
	for _, e := range snap.Entries {
		for _, n := range e.CPEs {
			if n.Vendor == "microsft" || n.Vendor == "bea_systems" || n.Vendor == "avast!" {
				t.Fatalf("alias %q survived Apply", n.Vendor)
			}
		}
	}
}

func TestVendorHeuristicsAgainstOracle(t *testing.T) {
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	va := AnalyzeVendorsN(snap, 0)
	oracle := OracleJudge{Canonical: truth.CanonicalVendor}
	judge := HeuristicJudge{}

	var tp, fp, fn int
	for i := range va.Pairs {
		p := &va.Pairs[i]
		pred := judge.SameVendor(p)
		actual := oracle.SameVendor(p)
		switch {
		case pred && actual:
			tp++
		case pred && !actual:
			fp++
		case !pred && actual:
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("heuristics found no true matches")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	// Table 2: confirmed rates above 60% for LCS>=3 patterns, >90% for
	// prefix/shared-product. The автоматed judge should be strongly
	// precise and recall most injected aliases that co-occur in CVEs.
	if precision < 0.70 {
		t.Errorf("precision = %.2f (tp=%d fp=%d), want ≥ 0.70", precision, tp, fp)
	}
	if recall < 0.60 {
		t.Errorf("recall = %.2f (tp=%d fn=%d), want ≥ 0.60", recall, tp, fn)
	}
}

func TestConsolidationRecoversInjectedAliases(t *testing.T) {
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Count alias names that actually appear in CVEs.
	used := make(map[string]bool)
	for _, e := range snap.Entries {
		for _, v := range e.Vendors() {
			used[v] = true
		}
	}
	va := AnalyzeVendorsN(snap, 0)
	m := va.Consolidate(HeuristicJudge{})
	var present, recovered int
	for alias, canonical := range truth.VendorCanonical {
		if !used[alias] || !used[canonical] {
			continue
		}
		present++
		if m.Canonical(alias) == canonical {
			recovered++
		}
	}
	if present == 0 {
		t.Fatal("no aliases in snapshot")
	}
	rate := float64(recovered) / float64(present)
	if rate < 0.55 {
		t.Errorf("alias recovery = %.2f (%d/%d), want ≥ 0.55", rate, recovered, present)
	}
}

func productSnapshot() *cve.Snapshot {
	return buildSnapshot([]struct {
		vendor, product string
		count           int
	}{
		{"microsoft", "internet_explorer", 25},
		{"microsoft", "internet-explorer", 3},
		{"microsoft", "ie", 2},
		{"microsoft", "internet_information_services", 10},
		{"nativesolutions", "the_banner_engine", 7},
		{"nativesolutions", "tbe_banner_engine", 1},
		{"cisco", "ucs-e160dp-m1_firmware", 4},
		{"cisco", "ucs-e140dp-m1_firmware", 3},
	})
}

func TestAnalyzeProducts(t *testing.T) {
	pa := AnalyzeProductsN(productSnapshot(), 0)
	find := func(vendor, a, b string) *ProductPair {
		if a > b {
			a, b = b, a
		}
		for i := range pa.Pairs {
			p := &pa.Pairs[i]
			if p.Vendor == vendor && p.A == a && p.B == b {
				return p
			}
		}
		return nil
	}
	if p := find("microsoft", "internet_explorer", "internet-explorer"); p == nil || !p.HasPattern(PatternTokens) {
		t.Errorf("separator variant not flagged: %+v", p)
	}
	if p := find("microsoft", "internet_explorer", "ie"); p == nil || !p.HasPattern(PatternAbbrev) {
		t.Errorf("abbreviation not flagged: %+v", p)
	}
	if p := find("nativesolutions", "the_banner_engine", "tbe_banner_engine"); p == nil || !p.HasPattern(PatternEdit) {
		t.Errorf("typo not flagged: %+v", p)
	}
	if p := find("cisco", "ucs-e160dp-m1_firmware", "ucs-e140dp-m1_firmware"); p == nil || !p.HasPattern(PatternEdit) {
		t.Errorf("digit variant should still be a candidate: %+v", p)
	}
}

func TestHeuristicProductJudge(t *testing.T) {
	pa := AnalyzeProductsN(productSnapshot(), 0)
	judge := HeuristicProductJudge{}
	want := map[[3]string]bool{
		{"microsoft", "internet-explorer", "internet_explorer"}:       true,
		{"microsoft", "ie", "internet_explorer"}:                      true,
		{"nativesolutions", "tbe_banner_engine", "the_banner_engine"}: true,
		{"cisco", "ucs-e140dp-m1_firmware", "ucs-e160dp-m1_firmware"}: false, // digit difference
	}
	checked := 0
	for i := range pa.Pairs {
		p := &pa.Pairs[i]
		expect, ok := want[[3]string{p.Vendor, p.A, p.B}]
		if !ok {
			continue
		}
		checked++
		if got := judge.SameProduct(p); got != expect {
			t.Errorf("judge(%s: %s, %s) = %v, want %v", p.Vendor, p.A, p.B, got, expect)
		}
	}
	if checked != len(want) {
		t.Errorf("only %d/%d expected pairs surfaced", checked, len(want))
	}
}

func TestProductConsolidateAndApply(t *testing.T) {
	snap := productSnapshot()
	pa := AnalyzeProductsN(snap, 0)
	m := pa.Consolidate(HeuristicProductJudge{})
	if got := m.Canonical("microsoft", "ie"); got != "internet_explorer" {
		t.Errorf("Canonical(ie) = %s", got)
	}
	if got := m.Canonical("microsoft", "internet-explorer"); got != "internet_explorer" {
		t.Errorf("Canonical(internet-explorer) = %s", got)
	}
	if got := m.Canonical("cisco", "ucs-e140dp-m1_firmware"); got != "ucs-e140dp-m1_firmware" {
		t.Errorf("digit variant was wrongly merged to %s", got)
	}
	vendors := m.Vendors()
	if len(vendors) != 2 { // microsoft and nativesolutions
		t.Errorf("Vendors() = %v", vendors)
	}
	changed := m.Apply(snap)
	if changed != 6 { // 3 internet-explorer + 2 ie + 1 tbe
		t.Errorf("Apply changed %d CVEs, want 6", changed)
	}
}

func TestProductOracleComparison(t *testing.T) {
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleProductJudge{Canonical: func(vendor, product string) string {
		return truth.CanonicalProduct(truth.CanonicalVendor(vendor), product)
	}}
	ours, dong := CompareBaseline(snap, oracle)
	if ours.TP == 0 {
		t.Fatal("our heuristics found no true product pairs")
	}
	ourPrecision := float64(ours.TP) / float64(ours.TP+ours.FP)
	if ourPrecision < 0.7 {
		t.Errorf("our product precision = %.2f, want ≥ 0.7", ourPrecision)
	}
	// The Dong baseline misses separator/abbreviation pairs entirely
	// when names use underscores (its split is whitespace-only), so it
	// must not dominate our recall, and any pairs it does flag by
	// shared words are often false.
	if dong.TP > ours.TP {
		t.Errorf("baseline TP %d exceeds ours %d", dong.TP, ours.TP)
	}
}

func TestBuildTable2(t *testing.T) {
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	va := AnalyzeVendorsN(snap, 0)
	table := BuildTable2(va, OracleJudge{Canonical: truth.CanonicalVendor})
	if table.Possible.TotalPairs() == 0 {
		t.Fatal("no possible pairs")
	}
	if table.Confirmed.TotalPairs() == 0 {
		t.Fatal("no confirmed pairs")
	}
	if table.Confirmed.TotalPairs() > table.Possible.TotalPairs() {
		t.Error("confirmed exceeds possible")
	}
	// Tokens pairs are all confirmed (paper: 260/260).
	if table.Possible.Tokens.Pairs > 0 &&
		table.Confirmed.Tokens.Pairs < table.Possible.Tokens.Pairs {
		t.Errorf("tokens: confirmed %d < possible %d — paper found 100%%",
			table.Confirmed.Tokens.Pairs, table.Possible.Tokens.Pairs)
	}
	if rate := table.ConfirmRate(); rate <= 0 || rate > 1 {
		t.Errorf("ConfirmRate = %v", rate)
	}
}

func TestMapHelpers(t *testing.T) {
	m := NewMap(map[string]string{"a": "b", "c": "b", "d": "e"})
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
	targets := m.Targets()
	if len(targets) != 2 || targets[0] != "b" || targets[1] != "e" {
		t.Errorf("Targets = %v", targets)
	}
}

func BenchmarkAnalyzeVendorsSmall(b *testing.B) {
	snap, _, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeVendorsN(snap, 0)
	}
}

func BenchmarkAnalyzeProductsSmall(b *testing.B) {
	snap, _, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeProductsN(snap, 0)
	}
}
