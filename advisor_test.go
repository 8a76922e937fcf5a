package nvdclean

import (
	"context"
	"reflect"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
)

// cleanFixture runs one shared fast Clean for advisor tests.
func cleanFixture(t *testing.T) (*Result, *Truth, *WebCorpus) {
	t.Helper()
	snap, truth, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewWebCorpus(snap, truth.Disclosure)
	res, err := Clean(context.Background(), snap, Options{
		Transport:   corpus.Transport(),
		Concurrency: 16,
		Models:      []predict.ModelKind{ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, truth, corpus
}

func TestAdvisorSuggestsConsistentNames(t *testing.T) {
	res, truth, _ := cleanFixture(t)
	advisor := res.Advisor()
	var queried, hit int
	for alias, canonical := range truth.VendorCanonical {
		sugs := advisor.SuggestVendor(alias, 3)
		if len(sugs) == 0 {
			continue
		}
		queried++
		// The consolidation may have picked either side of a pair as
		// canonical; the advisor should lead to whatever name the
		// cleaned database settled on.
		want := res.VendorMap.Canonical(canonical)
		for _, s := range sugs {
			if s.Name == want || s.Name == canonical {
				hit++
				break
			}
		}
	}
	if queried == 0 {
		t.Fatal("no suggestions produced")
	}
	if rate := float64(hit) / float64(queried); rate < 0.75 {
		t.Errorf("suggestion hit rate = %.2f (%d/%d)", rate, hit, queried)
	}
}

func TestAssessEntry(t *testing.T) {
	res, truth, corpus := cleanFixture(t)

	// Take a real lagged entry from the original snapshot and assess it
	// as if newly reported.
	var target *Entry
	for _, e := range res.Original.Entries {
		if truth.Disclosure[e.ID].Before(e.Published) && len(e.References) > 0 &&
			e.V2 != nil && e.V3 == nil {
			target = e
			break
		}
	}
	if target == nil {
		t.Skip("no suitable entry")
	}
	a, err := res.AssessEntry(context.Background(), target, corpus.Transport())
	if err != nil {
		t.Fatal(err)
	}
	if a.EstimatedDisclosure.After(target.Published) {
		t.Error("estimate after publication")
	}
	if !a.EstimatedDisclosure.Equal(truth.Disclosure[target.ID]) && a.LagDays == 0 {
		// Either the exact date was recovered (usual) or refs were all
		// dead (possible); both leave lag consistent.
		t.Logf("date not exactly recovered for %s (dead refs?)", target.ID)
	}
	if !a.HasPrediction {
		t.Error("expected a severity prediction for a v2-only entry")
	}
	if a.PredictedV3 < 0 || a.PredictedV3 > 10 {
		t.Errorf("predicted score %v out of range", a.PredictedV3)
	}
	if a.PredictedSeverity < cvss.SeverityNone || a.PredictedSeverity > cvss.SeverityCritical {
		t.Errorf("predicted severity %v invalid", a.PredictedSeverity)
	}
}

func TestAssessEntrySyntheticReport(t *testing.T) {
	res, _, _ := cleanFixture(t)

	// A hand-written incoming report with an inconsistent vendor name, a
	// CWE hint in the description, and no v3 label.
	v2, err := cvss.ParseV2("AV:N/AC:L/Au:N/C:P/I:P/A:P")
	if err != nil {
		t.Fatal(err)
	}
	entry := &Entry{
		ID:        "CVE-2018-99999",
		Published: time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC),
		V2:        &v2,
		CPEs: []cpe.Name{
			cpe.NewName(cpe.PartApplication, "microsft", "word", "1.0"),
		},
		Descriptions: []Description{
			{Value: "SQL injection, see CWE-89, in the search form."},
		},
	}
	a, err := res.AssessEntry(context.Background(), entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ExtractedCWEs) != 1 || a.ExtractedCWEs[0] != cwe.ID(89) {
		t.Errorf("ExtractedCWEs = %v", a.ExtractedCWEs)
	}
	sugs, ok := a.VendorSuggestions["microsft"]
	if !ok || len(sugs) == 0 {
		t.Fatalf("no suggestions for misspelled vendor: %v", a.VendorSuggestions)
	}
	if sugs[0].Name != "microsoft" {
		t.Errorf("top suggestion = %v", sugs[0])
	}
	if !a.HasPrediction {
		t.Error("expected severity prediction")
	}
	// No transport: estimate falls back to the published date.
	if !a.EstimatedDisclosure.Equal(entry.Published) || a.LagDays != 0 {
		t.Errorf("no-transport estimate = %v lag %d", a.EstimatedDisclosure, a.LagDays)
	}
}

func TestAssessEntryNil(t *testing.T) {
	res, _, _ := cleanFixture(t)
	if _, err := res.AssessEntry(context.Background(), nil, nil); err == nil {
		t.Error("nil entry should fail")
	}
}

// TestAssessEntryMatchesCleanedPV3 requires the §6 assessment to predict
// what the pipeline serves: every v2-only entry of a Clean, assessed
// against that Clean's Result, gets exactly its cleaned PV3. The
// assessments share one advisor, built once as AssessEntry builds it
// on every call; the first must equal AssessEntry's own.
func TestAssessEntryMatchesCleanedPV3(t *testing.T) {
	snap, _, err := GenerateSnapshot(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clean(context.Background(), snap, Options{
		Concurrency: 4,
		Models:      []predict.ModelKind{ModelLR},
		ModelConfig: predict.ModelConfig{Compact: true, Seed: 1},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	advisor := res.Advisor()
	assessed, mismatched := 0, 0
	for i, e := range res.Original.Entries {
		if e.V2 == nil || e.V3 != nil {
			continue
		}
		a, err := res.assessEntry(context.Background(), e, nil, advisor)
		if err != nil {
			t.Fatal(err)
		}
		if assessed == 0 {
			own, err := res.AssessEntry(context.Background(), e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, own) {
				t.Fatalf("%s: assessed with the shared advisor %+v, by AssessEntry %+v", e.ID, a, own)
			}
		}
		assessed++
		pv3 := res.Cleaned.Entries[i].PV3
		if pv3 == nil {
			t.Fatalf("%s: v2-only entry served without a pv3", e.ID)
		}
		if !a.HasPrediction || a.PredictedV3 != *pv3 {
			mismatched++
			if mismatched <= 3 {
				t.Errorf("%s: assessed %v (prediction: %v), served pv3 %v", e.ID, a.PredictedV3, a.HasPrediction, *pv3)
			}
		}
	}
	if assessed == 0 {
		t.Fatal("no v2-only entry to assess")
	}
	if mismatched > 0 {
		t.Errorf("%d of %d v2-only entries assessed to another score than their served pv3", mismatched, assessed)
	}
}
