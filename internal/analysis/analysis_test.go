package analysis

import (
	"testing"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/predict"
)

// fixture bundles the shared expensive setup: a generated snapshot
// whose v2-only entries carry a quick LR model's backported scores.
type fixture struct {
	snap  *cve.Snapshot
	truth *gen.Truth
}

var shared *fixture

func setup(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := predict.BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := predict.Train(ds, []predict.ModelKind{predict.ModelLR}, predict.ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.BackportAllN(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The pv3 scoring reads a score from the entry, where the severity
	// stage materializes it.
	for _, e := range snap.Entries {
		if s, ok := b.Scores[e.ID]; ok {
			e.PV3 = &s
		}
	}
	shared = &fixture{snap: snap, truth: truth}
	return shared
}

func (f *fixture) disclosureDates() []time.Time {
	out := make([]time.Time, 0, f.snap.Len())
	for _, e := range f.snap.Entries {
		out = append(out, f.truth.Disclosure[e.ID])
	}
	return out
}

func TestTopDatesNYEArtifact(t *testing.T) {
	f := setup(t)
	pub := TopDates(PublishedDates(f.snap), 10)
	if len(pub) == 0 {
		t.Fatal("no top dates")
	}
	nyeInPub := false
	for _, d := range pub {
		if d.Date.Month() == time.December && d.Date.Day() == 31 {
			nyeInPub = true
			// The 2004 NYE batch accounts for a large share of its year
			// (paper: 44.8%).
			if d.Date.Year() == 2004 && d.YearShare < 0.30 {
				t.Errorf("2004 NYE share = %.2f, want > 0.30", d.YearShare)
			}
		}
	}
	if !nyeInPub {
		t.Error("New Year's Eve missing from top publication dates — the §5.1 artifact")
	}
	// Under estimated disclosure dates the artifact disappears.
	disc := TopDates(f.disclosureDates(), 10)
	for _, d := range disc {
		if d.Date.Month() == time.December && d.Date.Day() == 31 {
			t.Errorf("NYE %v appears in top disclosure dates", d.Date)
		}
	}
}

func TestTopDatesOrdering(t *testing.T) {
	f := setup(t)
	top := TopDates(PublishedDates(f.snap), 10)
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("top dates not sorted: %d > %d", top[i].Count, top[i-1].Count)
		}
	}
	if len(top) != 10 {
		t.Errorf("len = %d, want 10", len(top))
	}
}

func TestDayOfWeek(t *testing.T) {
	f := setup(t)
	disc := DayOfWeekCounts(f.disclosureDates())
	// Disclosures peak Monday/Tuesday, trough on the weekend (Fig 2).
	if disc[time.Monday] <= disc[time.Saturday] || disc[time.Tuesday] <= disc[time.Sunday] {
		t.Errorf("disclosure weekday skew missing: %v", disc)
	}
	var total int
	for _, c := range disc {
		total += c
	}
	if total != f.snap.Len() {
		t.Errorf("day-of-week total = %d, want %d", total, f.snap.Len())
	}
}

func TestSeverityDistribution(t *testing.T) {
	f := setup(t)
	v2 := SeverityDistribution(f.snap, ScoreV2)
	pv3 := SeverityDistribution(f.snap, ScorePV3)
	// Table 9: v2 majority Medium; pv3 skews toward High+Critical.
	if v2[cvss.SeverityMedium] < v2[cvss.SeverityHigh] || v2[cvss.SeverityMedium] < 0.35 {
		t.Errorf("v2 Medium share = %.2f, expected the majority band", v2[cvss.SeverityMedium])
	}
	hc := pv3[cvss.SeverityHigh] + pv3[cvss.SeverityCritical]
	if hc < v2[cvss.SeverityHigh] {
		t.Errorf("pv3 High+Critical %.2f should exceed v2 High %.2f", hc, v2[cvss.SeverityHigh])
	}
	if pv3[cvss.SeverityLow] > v2[cvss.SeverityLow] {
		t.Errorf("pv3 Low %.3f should shrink below v2 Low %.3f", pv3[cvss.SeverityLow], v2[cvss.SeverityLow])
	}
	// Distributions sum to 1.
	for name, d := range map[string]SeverityDist{"v2": v2, "pv3": pv3} {
		var sum float64
		for _, frac := range d {
			sum += frac
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s distribution sums to %v", name, sum)
		}
	}
}

func TestYearlySeverity(t *testing.T) {
	f := setup(t)
	yearly := YearlySeverity(f.snap)
	if len(yearly) < 10 {
		t.Fatalf("only %d years", len(yearly))
	}
	cfg := gen.SmallConfig()
	var oldV3Years int
	for year, per := range yearly {
		// PV3 must cover every year that has CVEs (the paper's point:
		// the prediction affords severity analysis across the whole
		// dataset).
		if _, ok := per[ScorePV3]; !ok {
			t.Errorf("year %d lacks PV3 distribution", year)
		}
		if _, ok := per[ScoreV2]; !ok {
			t.Errorf("year %d lacks V2 distribution", year)
		}
		if _, ok := per[ScoreV3]; ok && year < cfg.V3StartYear-3 {
			oldV3Years++
		}
	}
	// Old years may have stray retroactive v3 labels but most have none
	// (§5.2: before 2013 no more than 35 CVEs a year).
	if oldV3Years > 6 {
		t.Errorf("%d deep-past years carry V3 distributions, want few", oldV3Years)
	}
	// Recent years have full V3.
	recent := yearly[cfg.V3StartYear]
	if recent == nil || recent[ScoreV3] == nil {
		t.Errorf("year %d missing V3 distribution", cfg.V3StartYear)
	}
}

func TestTopTypes(t *testing.T) {
	f := setup(t)
	v2High := TopTypes(f.snap, ScoreV2, cvss.SeverityHigh, 10)
	if len(v2High) == 0 {
		t.Fatal("no v2 High types")
	}
	// Table 10: buffer overflow (CWE-119) leads the v2 High column.
	if v2High[0].ID != cwe.ID(119) {
		t.Errorf("top v2 High type = %v, want CWE-119", v2High[0].ID)
	}
	// SQL injection leads the critical column under pv3 (§5.3).
	pv3Crit := TopTypes(f.snap, ScorePV3, cvss.SeverityCritical, 10)
	if len(pv3Crit) == 0 {
		t.Fatal("no pv3 Critical types")
	}
	inTop3 := false
	for _, tc := range pv3Crit[:min(3, len(pv3Crit))] {
		if tc.ID == cwe.ID(89) {
			inTop3 = true
		}
	}
	if !inTop3 {
		t.Errorf("CWE-89 not in top-3 pv3 Critical types: %v", pv3Crit[:min(3, len(pv3Crit))])
	}
	// Counts are descending.
	for i := 1; i < len(v2High); i++ {
		if v2High[i].Count > v2High[i-1].Count {
			t.Fatal("TopTypes not sorted")
		}
	}
}

func TestTopVendors(t *testing.T) {
	f := setup(t)
	byCVE := TopVendorsByCVE(f.snap, 10)
	if len(byCVE) != 10 {
		t.Fatalf("len = %d", len(byCVE))
	}
	// Table 11: microsoft leads by CVE count.
	if byCVE[0].Vendor != "microsoft" {
		t.Errorf("top CVE vendor = %s, want microsoft", byCVE[0].Vendor)
	}
	byProd := TopVendorsByProducts(f.snap, 10)
	// hp leads by product count.
	if byProd[0].Vendor != "hp" && byProd[1].Vendor != "hp" {
		t.Errorf("hp not in top-2 product vendors: %v %v", byProd[0], byProd[1])
	}
	// The two rankings differ (the paper notes only 4 common vendors).
	same := 0
	for _, a := range byCVE {
		for _, b := range byProd {
			if a.Vendor == b.Vendor {
				same++
			}
		}
	}
	if same == len(byCVE) {
		t.Error("CVE and product rankings are identical — expected divergence")
	}
	for _, v := range byCVE {
		if v.Share <= 0 || v.Share > 1 {
			t.Errorf("share %v out of range", v.Share)
		}
	}
}

func TestMislabeledAndCaseStudies(t *testing.T) {
	f := setup(t)
	// Apply naming fixes on a clone, recording which CVEs changed.
	clone := f.snap.Clone()
	va := naming.AnalyzeVendorsN(clone, 0)
	vm := va.Consolidate(naming.HeuristicJudge{})
	vendorChanged := make(map[string]bool)
	for _, e := range clone.Entries {
		for _, n := range e.CPEs {
			if vm.Mapped(n.Vendor) {
				vendorChanged[e.ID] = true
			}
		}
	}
	pa := naming.AnalyzeProductsN(clone, 0)
	pm := pa.Consolidate(naming.HeuristicProductJudge{})
	productChanged := make(map[string]bool)
	for _, e := range clone.Entries {
		for _, n := range e.CPEs {
			if pm.Canonical(n.Vendor, n.Product) != n.Product {
				productChanged[e.ID] = true
			}
		}
	}
	if len(vendorChanged) == 0 {
		t.Fatal("no vendor-corrected CVEs")
	}

	tab := MislabeledBySeverity(f.snap, vendorChanged, productChanged, ScoreV2)
	var vTotal int
	for _, c := range tab.Vendor {
		vTotal += c
	}
	if vTotal != len(vendorChanged) {
		t.Errorf("vendor mislabeled total = %d, want %d", vTotal, len(vendorChanged))
	}
	// Table 12's point: a substantial share of mislabeled CVEs are
	// high severity.
	if tab.Vendor[cvss.SeverityHigh] == 0 {
		t.Error("no high-severity mislabeled CVEs")
	}

	cases := SampleCaseStudies(f.snap, vendorChanged, 10, 42)
	if len(cases) == 0 {
		t.Fatal("no case studies")
	}
	if len(cases) > 10 {
		t.Errorf("len = %d, want ≤ 10", len(cases))
	}
	for _, c := range cases {
		if c.ID == "" || c.Description == "" || c.Vendor == "" {
			t.Errorf("incomplete case study %+v", c)
		}
		if !vendorChanged[c.ID] {
			t.Errorf("%s sampled but not vendor-corrected", c.ID)
		}
	}
	// Samples lead with High severity like Table 16.
	if cases[0].Severity < cvss.SeverityHigh {
		t.Errorf("first sample severity = %v, want High", cases[0].Severity)
	}
}

func TestAvgLagBySeverity(t *testing.T) {
	f := setup(t)
	lag := make(map[string]int, f.snap.Len())
	for _, e := range f.snap.Entries {
		lag[e.ID] = f.truth.LagDays(e.ID, e.Published)
	}
	avg := AvgLagBySeverity(f.snap, lag, ScorePV3)
	if len(avg) < 3 {
		t.Fatalf("only %d severity bands: %v", len(avg), avg)
	}
	// Fig 4: averages are tens of days and of the same order across
	// bands ("no relationship with severity").
	for sev, days := range avg {
		if days < 5 || days > 400 {
			t.Errorf("%v: average lag %.1f days implausible", sev, days)
		}
	}
}

func TestScoringString(t *testing.T) {
	if ScoreV2.String() != "V2" || ScoreV3.String() != "V3" || ScorePV3.String() != "PV3" || Scoring(9).String() != "?" {
		t.Error("Scoring strings wrong")
	}
}

func TestSeverityOfUnknownScoring(t *testing.T) {
	if _, ok := SeverityOf(&cve.Entry{}, Scoring(9)); ok {
		t.Error("unknown scoring should not resolve")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkYearlySeverity(b *testing.B) {
	f := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		YearlySeverity(f.snap)
	}
}
