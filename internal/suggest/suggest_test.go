package suggest

import (
	"testing"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
)

func buildAdvisor(t testing.TB) *Advisor {
	t.Helper()
	rows := []struct {
		vendor, product string
		count           int
	}{
		{"microsoft", "internet_explorer", 30},
		{"microsoft", "windows", 25},
		{"oracle", "database_server", 40},
		{"bea", "weblogic_server", 17},
		{"avast", "antivirus", 8},
		{"lan_management_system", "lms_console", 5},
		{"lynx", "lynx_browser", 6},
		{"schneider_electric", "scada_gateway", 9},
	}
	snap := &cve.Snapshot{}
	seq := 1
	for _, r := range rows {
		for i := 0; i < r.count; i++ {
			snap.Entries = append(snap.Entries, &cve.Entry{
				ID:   cve.FormatID(2012, seq),
				CPEs: []cpe.Name{cpe.NewName(cpe.PartApplication, r.vendor, r.product, "1.0")},
			})
			seq++
		}
	}
	vendorMap := naming.NewMap(map[string]string{
		"microsft":    "microsoft",
		"bea_systems": "bea",
	})
	return NewAdvisor(snap, vendorMap, nil)
}

func TestSuggestVendorExact(t *testing.T) {
	a := buildAdvisor(t)
	s := a.SuggestVendor("microsoft", 3)
	if len(s) == 0 || s[0].Name != "microsoft" || s[0].Reason != "exact" || s[0].Score != 1.0 {
		t.Errorf("exact lookup = %+v", s)
	}
}

func TestSuggestVendorKnownAlias(t *testing.T) {
	a := buildAdvisor(t)
	s := a.SuggestVendor("microsft", 3)
	if len(s) == 0 || s[0].Name != "microsoft" {
		t.Fatalf("alias lookup = %+v", s)
	}
	// known-alias and edit-distance both fire; the stronger signal must
	// win.
	if s[0].Reason != "known-alias" {
		t.Errorf("reason = %s, want known-alias", s[0].Reason)
	}
}

func TestSuggestVendorPatterns(t *testing.T) {
	a := buildAdvisor(t)
	tests := []struct {
		query  string
		want   string
		reason string
	}{
		{"avast!", "avast", "tokens"},
		{"lms", "lan_management_system", "abbreviation"},
		{"lynx_project", "lynx", "prefix"},
		{"oracel", "oracle", "edit-distance"},
		{"schneider electric", "schneider_electric", "tokens"},
	}
	for _, tt := range tests {
		s := a.SuggestVendor(tt.query, 3)
		if len(s) == 0 {
			t.Errorf("SuggestVendor(%q) empty", tt.query)
			continue
		}
		if s[0].Name != tt.want {
			t.Errorf("SuggestVendor(%q)[0] = %s (%s), want %s", tt.query, s[0].Name, s[0].Reason, tt.want)
			continue
		}
		if s[0].Reason != tt.reason {
			t.Errorf("SuggestVendor(%q) reason = %s, want %s", tt.query, s[0].Reason, tt.reason)
		}
	}
}

func TestSuggestVendorEmptyAndUnknown(t *testing.T) {
	a := buildAdvisor(t)
	if s := a.SuggestVendor("", 5); s != nil {
		t.Errorf("empty query = %v", s)
	}
	if s := a.SuggestVendor("zzzzqqqq", 5); len(s) != 0 {
		t.Errorf("unmatchable query = %v", s)
	}
}

func TestSuggestVendorRankingByCVEs(t *testing.T) {
	// "windows" as a vendor query: no exact vendor; oracle/microsoft
	// unrelated. Crafted: two names equidistant — higher CVE count
	// first.
	snap := &cve.Snapshot{}
	seq := 1
	for _, r := range []struct {
		vendor string
		count  int
	}{{"acmesoft", 20}, {"acmesort", 2}} {
		for i := 0; i < r.count; i++ {
			snap.Entries = append(snap.Entries, &cve.Entry{
				ID:   cve.FormatID(2012, seq),
				CPEs: []cpe.Name{cpe.NewName(cpe.PartApplication, r.vendor, "p", "1")},
			})
			seq++
		}
	}
	a := NewAdvisor(snap, nil, nil)
	s := a.SuggestVendor("acmesoft", 2)
	if len(s) < 2 {
		t.Fatalf("suggestions = %v", s)
	}
	if s[0].Name != "acmesoft" || s[1].Name != "acmesort" {
		t.Errorf("ranking = %v", s)
	}
}

func TestSuggestProduct(t *testing.T) {
	a := buildAdvisor(t)
	tests := []struct {
		vendor, query, want string
	}{
		{"microsoft", "internet-explorer", "internet_explorer"},
		{"microsoft", "ie", "internet_explorer"},
		{"microsoft", "internet_explorer", "internet_explorer"},
		{"bea", "weblogic", "weblogic_server"},
	}
	for _, tt := range tests {
		s := a.SuggestProduct(tt.vendor, tt.query, 3)
		if len(s) == 0 || s[0].Name != tt.want {
			t.Errorf("SuggestProduct(%q, %q) = %v, want %s", tt.vendor, tt.query, s, tt.want)
		}
	}
}

func TestSuggestProductThroughVendorAlias(t *testing.T) {
	// Reporter types the inconsistent vendor "microsft": the advisor
	// resolves it and still suggests microsoft's products.
	a := buildAdvisor(t)
	s := a.SuggestProduct("microsft", "internet explorer", 3)
	if len(s) == 0 || s[0].Name != "internet_explorer" {
		t.Errorf("aliased vendor product lookup = %v", s)
	}
}

func TestSuggestProductUnknownVendor(t *testing.T) {
	a := buildAdvisor(t)
	if s := a.SuggestProduct("nonexistent_vendor_xyz", "prod", 3); len(s) != 0 {
		t.Errorf("unknown vendor = %v", s)
	}
	if s := a.SuggestProduct("microsoft", "", 3); s != nil {
		t.Errorf("empty product query = %v", s)
	}
}

func TestAdvisorOnGeneratedSnapshot(t *testing.T) {
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	va := naming.AnalyzeVendorsN(snap, 0)
	vm := va.Consolidate(naming.HeuristicJudge{})
	clean := snap.Clone()
	vm.Apply(clean)
	a := NewAdvisor(clean, vm, nil)

	// Querying any injected alias must lead to its canonical vendor in
	// the top suggestions (when the canonical name survived cleaning).
	vendors := make(map[string]bool)
	for _, e := range clean.Entries {
		for _, v := range e.Vendors() {
			vendors[v] = true
		}
	}
	var queried, hit int
	for alias, canonical := range truth.VendorCanonical {
		if !vendors[canonical] {
			continue
		}
		s := a.SuggestVendor(alias, 3)
		if len(s) == 0 {
			continue
		}
		queried++
		for _, cand := range s {
			if cand.Name == canonical {
				hit++
				break
			}
		}
	}
	if queried == 0 {
		t.Fatal("no alias queries produced suggestions")
	}
	if rate := float64(hit) / float64(queried); rate < 0.8 {
		t.Errorf("alias→canonical suggestion rate = %.2f (%d/%d), want ≥ 0.8", rate, hit, queried)
	}
}

func BenchmarkSuggestVendor(b *testing.B) {
	snap, _, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := NewAdvisor(snap, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SuggestVendor("microsft", 5)
	}
}
