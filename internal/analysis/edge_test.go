package analysis

import (
	"testing"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
)

func TestTopDatesUnbounded(t *testing.T) {
	dates := []time.Time{
		time.Date(2010, 1, 4, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 1, 4, 10, 0, 0, 0, time.UTC), // same day, later hour
		time.Date(2010, 2, 5, 0, 0, 0, 0, time.UTC),
	}
	all := TopDates(dates, 0)
	if len(all) != 2 {
		t.Fatalf("distinct days = %d, want 2", len(all))
	}
	if all[0].Count != 2 {
		t.Errorf("top count = %d, want 2 (hour truncation)", all[0].Count)
	}
	if all[0].YearShare != 1.0 {
		// 3 CVEs in 2010; the top day has 2 → 2/3.
		if diff := all[0].YearShare - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("year share = %v, want 2/3", all[0].YearShare)
		}
	}
}

func TestTopDatesEmpty(t *testing.T) {
	if got := TopDates(nil, 10); len(got) != 0 {
		t.Errorf("TopDates(nil) = %v", got)
	}
}

func TestSeverityDistributionEmpty(t *testing.T) {
	snap := &cve.Snapshot{}
	if d := SeverityDistribution(snap, ScoreV2); len(d) != 0 {
		t.Errorf("empty snapshot distribution = %v", d)
	}
}

func TestSeverityDistributionScoreV3OnlyLabeled(t *testing.T) {
	// Entries without v3 labels are excluded from the V3 scoring
	// distribution (the paper's point about unrepresentative years).
	v2, err := cvss.ParseV2("AV:N/AC:L/Au:N/C:P/I:P/A:P")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := cvss.ParseV3("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
	if err != nil {
		t.Fatal(err)
	}
	snap := &cve.Snapshot{Entries: []*cve.Entry{
		{ID: "CVE-2016-0001", V2: &v2, V3: &v3},
		{ID: "CVE-2005-0001", V2: &v2}, // no v3 label
	}}
	d := SeverityDistribution(snap, ScoreV3)
	if d[cvss.SeverityCritical] != 1.0 {
		t.Errorf("V3 distribution = %v, want Critical 100%% over the labeled subset", d)
	}
}

func TestAvgLagBySeverityNoLags(t *testing.T) {
	snap := &cve.Snapshot{Entries: []*cve.Entry{{ID: "CVE-2010-0001"}}}
	if avg := AvgLagBySeverity(snap, nil, ScoreV2); len(avg) != 0 {
		t.Errorf("no lag data should give empty result: %v", avg)
	}
}

func TestMislabeledBySeverityEmptySets(t *testing.T) {
	f := setup(t)
	tab := MislabeledBySeverity(f.snap, nil, nil, ScoreV2)
	for _, c := range tab.Vendor {
		if c != 0 {
			t.Error("no changed CVEs should give zero counts")
		}
	}
}

func TestSampleCaseStudiesDeterministic(t *testing.T) {
	f := setup(t)
	changed := map[string]bool{}
	for i, e := range f.snap.Entries {
		if i%7 == 0 {
			changed[e.ID] = true
		}
	}
	a := SampleCaseStudies(f.snap, changed, 5, 42)
	b := SampleCaseStudies(f.snap, changed, 5, 42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("non-deterministic sample")
		}
	}
	c := SampleCaseStudies(f.snap, changed, 5, 43)
	same := true
	for i := range a {
		if i < len(c) && a[i].ID != c[i].ID {
			same = false
		}
	}
	if same && len(a) > 2 {
		t.Log("warning: different seeds gave identical samples (possible but unlikely)")
	}
}

func TestTopTypesExcludesMeta(t *testing.T) {
	f := setup(t)
	for _, tc := range TopTypes(f.snap, ScoreV2, cvss.SeverityHigh, 0) {
		if tc.ID.IsMeta() {
			t.Fatalf("meta CWE %v in top types", tc.ID)
		}
	}
}

func TestPV3SeverityWithoutBackport(t *testing.T) {
	v2, err := cvss.ParseV2("AV:N/AC:L/Au:N/C:P/I:P/A:P")
	if err != nil {
		t.Fatal(err)
	}
	e := &cve.Entry{ID: "CVE-2005-0001", V2: &v2}
	if _, ok := e.SeverityPV3(); ok {
		t.Error("pv3 without backport or label should be absent")
	}
	if _, ok := SeverityOf(e, ScorePV3); ok {
		t.Error("pv3 scoring without a backported score should be absent")
	}
	score := 9.8
	e.PV3 = &score
	if sev, ok := SeverityOf(e, ScorePV3); !ok || sev != cvss.SeverityCritical {
		t.Errorf("pv3 of a backported 9.8 = %v, %v; want CRITICAL", sev, ok)
	}
	v3, err := cvss.ParseV3("CVSS:3.0/AV:L/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N")
	if err != nil {
		t.Fatal(err)
	}
	e.V3 = &v3
	if sev, ok := SeverityOf(e, ScorePV3); !ok || sev != v3.Severity() {
		t.Errorf("pv3 with a v3 label = %v, %v; want the label's %v", sev, ok, v3.Severity())
	}
}
