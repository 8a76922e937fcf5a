package gen

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

func generateSmall(t testing.TB) (*Truth, *Universe, int) {
	t.Helper()
	snap, truth, uni, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return truth, uni, snap.Len()
}

func TestGenerateCounts(t *testing.T) {
	cfg := SmallConfig()
	snap, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != cfg.NumCVEs {
		t.Errorf("entries = %d, want %d", snap.Len(), cfg.NumCVEs)
	}
	if !snap.CapturedAt.Equal(cfg.CaptureDate) {
		t.Errorf("CapturedAt = %v", snap.CapturedAt)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := TinyConfig()
	a, ta, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.ID != eb.ID || !ea.Published.Equal(eb.Published) ||
			ea.Description() != eb.Description() || *ea.V2 != *eb.V2 {
			t.Fatalf("entry %d differs between runs", i)
		}
	}
	for id, d := range ta.Disclosure {
		if !tb.Disclosure[id].Equal(d) {
			t.Fatalf("truth disclosure differs for %s", id)
		}
	}
}

func TestGenerateConfigErrors(t *testing.T) {
	if _, _, _, err := Generate(Config{}); err == nil {
		t.Error("zero config should fail")
	}
	bad := SmallConfig()
	bad.FirstYear, bad.LastYear = 2018, 1998
	if _, _, _, err := Generate(bad); err == nil {
		t.Error("inverted year range should fail")
	}
}

// TestScaleConfig pins the scale table the commands share. "tiny" must
// stay the 400-CVE, 120-vendor cut of SmallConfig that nvdserve's demo
// built by hand, so demo snapshots do not change.
func TestScaleConfig(t *testing.T) {
	demoTiny := SmallConfig()
	demoTiny.NumCVEs, demoTiny.NumVendors = 400, 120
	for _, tc := range []struct {
		name string
		want Config
		cves int
	}{
		{"tiny", demoTiny, 400},
		{"small", SmallConfig(), 3000},
		{"paper", DefaultConfig(), 107200},
	} {
		got, err := ScaleConfig(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want || got.NumCVEs != tc.cves {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
	for _, name := range []string{"", "Tiny", "huge"} {
		_, err := ScaleConfig(name)
		if want := `unknown scale "` + name + `" (want tiny, small or paper)`; err == nil || err.Error() != want {
			t.Errorf("ScaleConfig(%q) = %v, want %q", name, err, want)
		}
	}
}

func TestEntryInvariants(t *testing.T) {
	cfg := SmallConfig()
	snap, truth, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range snap.Entries {
		if seen[e.ID] {
			t.Fatalf("duplicate CVE ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.V2 == nil || !e.V2.Valid() {
			t.Fatalf("%s: missing or invalid v2", e.ID)
		}
		if e.V3 != nil && !e.V3.Valid() {
			t.Fatalf("%s: invalid v3", e.ID)
		}
		if len(e.Descriptions) == 0 || e.Description() == "" {
			t.Fatalf("%s: missing description", e.ID)
		}
		disclosed, ok := truth.Disclosure[e.ID]
		if !ok {
			t.Fatalf("%s: no truth disclosure", e.ID)
		}
		if e.Published.Before(disclosed) {
			t.Fatalf("%s: published %v before disclosure %v", e.ID, e.Published, disclosed)
		}
		if e.Published.After(cfg.CaptureDate) {
			t.Fatalf("%s: published after capture", e.ID)
		}
		if _, ok := truth.TrueCWE[e.ID]; !ok {
			t.Fatalf("%s: no truth CWE", e.ID)
		}
		v3, ok := truth.TrueV3[e.ID]
		if !ok || !v3.Valid() {
			t.Fatalf("%s: no valid truth v3", e.ID)
		}
		if e.V3 != nil && *e.V3 != v3 {
			t.Fatalf("%s: NVD v3 label differs from truth", e.ID)
		}
		if len(e.CPEs) == 0 || len(e.CPEs) > 3 {
			t.Fatalf("%s: %d CPEs", e.ID, len(e.CPEs))
		}
	}
}

func TestV3LabelCoverage(t *testing.T) {
	cfg := SmallConfig()
	snap, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var withV3, total int
	perYearOld := make(map[int]int)
	for _, e := range snap.Entries {
		total++
		if e.HasV3() {
			withV3++
			if y := e.Year(); y < cfg.V3StartYear-3 {
				perYearOld[y]++
			}
		}
	}
	frac := float64(withV3) / float64(total)
	// Paper: ≈35% of CVEs carry v3.
	if frac < 0.25 || frac > 0.50 {
		t.Errorf("v3 coverage = %.2f, want ≈0.35", frac)
	}
	// Recent years must be fully labeled.
	for _, e := range snap.Entries {
		if e.Year() >= cfg.V3StartYear && !e.HasV3() {
			t.Fatalf("%s: recent CVE without v3", e.ID)
		}
	}
	// Deep-past years have only stray labels.
	for y, n := range perYearOld {
		if n > 5 {
			t.Errorf("year %d has %d retroactive v3 labels, want few", y, n)
		}
	}
}

func TestLagDistributionShape(t *testing.T) {
	cfg := SmallConfig()
	snap, truth, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var zero, within6, total int
	for _, e := range snap.Entries {
		lag := truth.LagDays(e.ID, e.Published)
		if lag < 0 {
			t.Fatalf("%s: negative lag", e.ID)
		}
		total++
		if lag == 0 {
			zero++
		}
		if lag <= 6 {
			within6++
		}
	}
	zf := float64(zero) / float64(total)
	wf := float64(within6) / float64(total)
	// Fig 1: ≈38% zero-lag, ≈70% within 6 days. Injection targets are
	// looser because the NYE artifact adds long lags.
	if zf < 0.25 || zf > 0.55 {
		t.Errorf("zero-lag fraction = %.2f, want ≈0.38", zf)
	}
	if wf < 0.55 || wf > 0.85 {
		t.Errorf("≤6-day fraction = %.2f, want ≈0.70", wf)
	}
}

func TestNYEArtifactPresent(t *testing.T) {
	snap, _, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	nye2004 := 0
	year2004 := 0
	for _, e := range snap.Entries {
		if e.Year() != 2004 {
			continue
		}
		year2004++
		if e.Published.Month() == time.December && e.Published.Day() == 31 {
			nye2004++
		}
	}
	if year2004 == 0 {
		t.Skip("no 2004 CVEs at this scale")
	}
	frac := float64(nye2004) / float64(year2004)
	if frac < 0.30 || frac > 0.60 {
		t.Errorf("2004 NYE backfill = %.2f of year, want ≈0.45", frac)
	}
}

func TestSeverityUpwardSkew(t *testing.T) {
	// Table 4 shape: no Low→Critical, no High→Low; Medium splits toward
	// High; High splits between High and Critical.
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	trans := make(map[[2]cvss.Severity]int)
	totals := make(map[cvss.Severity]int)
	for _, e := range snap.Entries {
		v2sev := e.V2.Severity()
		v3 := truth.TrueV3[e.ID]
		trans[[2]cvss.Severity{v2sev, v3.Severity()}]++
		totals[v2sev]++
	}
	if n := trans[[2]cvss.Severity{cvss.SeverityLow, cvss.SeverityCritical}]; n > 0 {
		t.Errorf("Low→Critical transitions = %d, want 0", n)
	}
	if n := trans[[2]cvss.Severity{cvss.SeverityHigh, cvss.SeverityLow}]; n > totals[cvss.SeverityHigh]/100 {
		t.Errorf("High→Low transitions = %d, want ≈0", n)
	}
	// High → Critical should be a large share (paper: 47%).
	hc := float64(trans[[2]cvss.Severity{cvss.SeverityHigh, cvss.SeverityCritical}])
	if tot := totals[cvss.SeverityHigh]; tot > 0 {
		if share := hc / float64(tot); share < 0.25 || share > 0.75 {
			t.Errorf("High→Critical share = %.2f, want ≈0.47", share)
		}
	}
	// Medium → High should be substantial (paper: 49%).
	mh := float64(trans[[2]cvss.Severity{cvss.SeverityMedium, cvss.SeverityHigh}])
	if tot := totals[cvss.SeverityMedium]; tot > 0 {
		if share := mh / float64(tot); share < 0.25 || share > 0.75 {
			t.Errorf("Medium→High share = %.2f, want ≈0.49", share)
		}
	}
}

func TestVendorAliasInjection(t *testing.T) {
	truth, uni, _ := generateSmall(t)
	if uni.VendorAliasCount() == 0 {
		t.Fatal("no vendor aliases injected")
	}
	if len(truth.VendorCanonical) != uni.VendorAliasCount() {
		t.Errorf("truth has %d aliases, universe has %d",
			len(truth.VendorCanonical), uni.VendorAliasCount())
	}
	// Every alias maps to an existing canonical vendor and has a pattern.
	canon := make(map[string]bool)
	for _, v := range uni.Vendors {
		canon[v.Name] = true
	}
	for alias, c := range truth.VendorCanonical {
		if !canon[c] {
			t.Errorf("alias %q maps to unknown vendor %q", alias, c)
		}
		if truth.VendorPattern[alias] == "" {
			t.Errorf("alias %q has no pattern", alias)
		}
		if alias == c {
			t.Errorf("alias %q equals canonical", alias)
		}
	}
}

func TestAliasedVendorsAppearInSnapshot(t *testing.T) {
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]int)
	for _, e := range snap.Entries {
		for _, v := range e.Vendors() {
			used[v]++
		}
	}
	var aliasUsed int
	for alias := range truth.VendorCanonical {
		if used[alias] > 0 {
			aliasUsed++
		}
	}
	if aliasUsed == 0 {
		t.Fatal("no injected alias appears in any CVE")
	}
	// Canonical names must dominate their aliases (consolidation rule).
	misordered := 0
	checked := 0
	for alias, c := range truth.VendorCanonical {
		if used[alias] == 0 {
			continue
		}
		checked++
		if used[alias] > used[c] {
			misordered++
		}
	}
	if checked > 0 && float64(misordered)/float64(checked) > 0.25 {
		t.Errorf("%d/%d aliases outnumber their canonical name", misordered, checked)
	}
}

func TestCWEFieldQualityMix(t *testing.T) {
	cfg := SmallConfig()
	snap, _, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var other, noinfo, unassigned, typed int
	for _, e := range snap.Entries {
		switch {
		case len(e.CWEs) == 0:
			unassigned++
		case e.CWEs[0] == cwe.Other:
			other++
		case e.CWEs[0] == cwe.NoInfo:
			noinfo++
		default:
			typed++
		}
	}
	total := float64(snap.Len())
	if f := float64(other) / total; f < 0.18 || f > 0.32 {
		t.Errorf("NVD-CWE-Other share = %.3f, want ≈0.245", f)
	}
	if f := float64(noinfo) / total; f < 0.04 || f > 0.11 {
		t.Errorf("noinfo share = %.3f, want ≈0.071", f)
	}
	if f := float64(unassigned) / total; f < 0.004 || f > 0.03 {
		t.Errorf("unassigned share = %.3f, want ≈0.012", f)
	}
}

func TestEvaluatorHintsRecoverable(t *testing.T) {
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hints, correct, typedHints int
	for _, e := range snap.Entries {
		ids := cwe.Extract(e.AllDescriptionText())
		if len(ids) == 0 {
			continue
		}
		if e.Typed() {
			// Typed entries cite an additional related weakness, not
			// necessarily the primary one.
			typedHints++
			continue
		}
		hints++
		if ids[0] == truth.TrueCWE[e.ID] {
			correct++
		}
	}
	if hints == 0 {
		t.Fatal("no evaluator hints injected")
	}
	if correct != hints {
		t.Errorf("untyped hints correct %d/%d, want all (paper found no erroneous cases)", correct, hints)
	}
	if typedHints == 0 {
		t.Error("no typed entries with additional-label hints")
	}
}

func TestDescriptionsReflectTrueFamily(t *testing.T) {
	// SQL injection CVEs must (usually) mention SQL; XSS CVEs must
	// mention scripting — the signal the k-NN classifier learns.
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sqlTotal, sqlMention int
	for _, e := range snap.Entries {
		if truth.TrueCWE[e.ID] != cwe.ID(89) {
			continue
		}
		sqlTotal++
		if strings.Contains(strings.ToLower(e.Description()), "sql") {
			sqlMention++
		}
	}
	if sqlTotal == 0 {
		t.Skip("no SQLI CVEs at this scale")
	}
	frac := float64(sqlMention) / float64(sqlTotal)
	// noiseRate of descriptions are type-free by design.
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("SQLI descriptions mentioning sql = %.2f, want ≈0.70", frac)
	}
}

func TestReferences(t *testing.T) {
	snap, _, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hostSet := make(map[string]bool)
	for _, d := range Domains() {
		hostSet[d.Host] = true
	}
	var withRefs int
	for _, e := range snap.Entries {
		if len(e.References) > 0 {
			withRefs++
		}
		for _, r := range e.References {
			if !strings.HasPrefix(r.URL, "https://") {
				t.Fatalf("%s: bad ref URL %q", e.ID, r.URL)
			}
			if !strings.Contains(r.URL, e.ID) {
				t.Fatalf("%s: ref URL %q missing CVE id", e.ID, r.URL)
			}
			host := strings.TrimPrefix(r.URL, "https://")
			host = host[:strings.Index(host, "/")]
			if !hostSet[host] {
				t.Fatalf("%s: unknown host %q", e.ID, host)
			}
		}
	}
	if f := float64(withRefs) / float64(snap.Len()); f < 0.90 {
		t.Errorf("only %.2f of CVEs have references", f)
	}
}

func TestDomainsTop50Coverage(t *testing.T) {
	ds := Domains()
	if len(ds) < 55 {
		t.Fatalf("domain universe too small: %d", len(ds))
	}
	var total, top50 float64
	for i, d := range ds {
		total += d.weight
		if i < 50 {
			top50 += d.weight
		}
	}
	cov := top50 / total
	if cov < 0.80 || cov > 0.95 {
		t.Errorf("top-50 coverage = %.3f, want ≈0.85", cov)
	}
	if DeadTop50() != 14 {
		t.Errorf("dead top-50 domains = %d, want 14 (paper)", DeadTop50())
	}
}

func TestWeekdaySkew(t *testing.T) {
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var weekday, weekend int
	for _, e := range snap.Entries {
		switch truth.Disclosure[e.ID].Weekday() {
		case time.Saturday, time.Sunday:
			weekend++
		case time.Monday, time.Tuesday:
			weekday++
		}
	}
	if weekday <= weekend*2 {
		t.Errorf("Mon+Tue %d vs weekend %d: disclosure weekday skew missing", weekday, weekend)
	}
}

func TestHeadVendorsDominate(t *testing.T) {
	snap, truth, _, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, e := range snap.Entries {
		for _, v := range e.Vendors() {
			counts[truth.CanonicalVendor(v)]++
		}
	}
	if counts["microsoft"] < counts["axis"] {
		t.Errorf("microsoft (%d) should outnumber axis (%d) by CVE count",
			counts["microsoft"], counts["axis"])
	}
}

func TestUniverseProductShares(t *testing.T) {
	_, uni, _ := generateSmall(t)
	byName := make(map[string]*Vendor)
	for _, v := range uni.Vendors {
		byName[v.Name] = v
	}
	hp, ms := byName["hp"], byName["microsoft"]
	if hp == nil || ms == nil {
		t.Fatal("head vendors missing")
	}
	if len(hp.Products) <= len(ms.Products) {
		t.Errorf("hp products (%d) should exceed microsoft products (%d) — Table 11",
			len(hp.Products), len(ms.Products))
	}
}

func TestRefPageDate(t *testing.T) {
	disc := time.Date(2011, 2, 7, 0, 0, 0, 0, time.UTC)
	if got := RefPageDate("https://x/vuln/CVE-2011-0700", disc, true); !got.Equal(disc) {
		t.Errorf("primary ref date = %v, want disclosure", got)
	}
	d1 := RefPageDate("https://a/vuln/CVE-2011-0700", disc, false)
	d2 := RefPageDate("https://a/vuln/CVE-2011-0700", disc, false)
	if !d1.Equal(d2) {
		t.Error("RefPageDate must be deterministic")
	}
	if d1.Before(disc) || d1.After(disc.AddDate(0, 0, 31)) {
		t.Errorf("repost date %v outside [disclosure, +31d]", d1)
	}
}

func TestProductAliasPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		alias := makeProductAlias("internet_explorer", rng)
		if alias != "" {
			seen[alias] = true
		}
	}
	if !seen["internet-explorer"] && !seen["internet explorer"] {
		t.Error("separator variant never generated")
	}
	if !seen["ie"] {
		t.Error("abbreviation never generated")
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
