package predict

import (
	"errors"
	"math"
	"sync"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
)

// fastConfig keeps deep-model training quick for unit tests.
var fastConfig = ModelConfig{Epochs: 15, Compact: true, SVRMaxSamples: 400, Seed: 7}

func generateSnapshot(t testing.TB) (*cve.Snapshot, *gen.Truth) {
	t.Helper()
	snap, truth, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return snap, truth
}

func TestFeatures(t *testing.T) {
	v2, err := cvss.ParseV2("AV:N/AC:L/Au:N/C:C/I:C/A:C")
	if err != nil {
		t.Fatal(err)
	}
	enc := NeutralCWEEncoder()
	f := enc.Features(v2, cwe.ID(89))
	if len(f) != NumFeatures {
		t.Fatalf("len = %d, want %d", len(f), NumFeatures)
	}
	if f[0] != 1.0 { // AV:N
		t.Errorf("AV feature = %v", f[0])
	}
	if f[6] != 1.0 { // base score 10.0
		t.Errorf("base score feature = %v", f[6])
	}
	if f[9] != 1 { // all-privileges flag for CCC
		t.Errorf("all-priv flag = %v", f[9])
	}
	if f[10] != 0 {
		t.Errorf("user-priv flag = %v for complete impacts", f[10])
	}
	if f[12] != 0.5 { // neutral encoder
		t.Errorf("CWE feature = %v, want 0.5", f[12])
	}
	// No impact sets the other-priv flag.
	v2n, _ := cvss.ParseV2("AV:N/AC:L/Au:N/C:N/I:N/A:N")
	f3 := enc.Features(v2n, cwe.ID(20))
	if f3[11] != 1 {
		t.Errorf("other-priv flag = %v for no impact", f3[11])
	}
}

func TestCWEEncoder(t *testing.T) {
	ids := []cwe.ID{cwe.ID(89), cwe.ID(89), cwe.ID(79)}
	v2s := []float64{5.0, 6.0, 4.3}
	v3s := []float64{9.8, 8.8, 5.4}
	enc := FitCWEEncoder(ids, v2s, v3s)
	// SQLI (mean delta +3.8) must encode above XSS (+1.1).
	if enc.Encode(cwe.ID(89)) <= enc.Encode(cwe.ID(79)) {
		t.Errorf("SQLI encoding %v should exceed XSS %v",
			enc.Encode(cwe.ID(89)), enc.Encode(cwe.ID(79)))
	}
	// Unseen types get the global mean, within [0, 1].
	g := enc.Encode(cwe.ID(12345))
	if g <= 0 || g >= 1 {
		t.Errorf("global fallback = %v", g)
	}
	// Empty fit gives the neutral midpoint.
	empty := FitCWEEncoder(nil, nil, nil)
	if empty.Encode(cwe.ID(89)) != 0.5 {
		t.Errorf("empty encoder = %v", empty.Encode(cwe.ID(89)))
	}
}

func TestBuildDataset(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		t.Fatal("empty split")
	}
	ratio := float64(len(ds.Train)) / float64(len(ds.Train)+len(ds.Test))
	if ratio < 0.75 || ratio > 0.85 {
		t.Errorf("train ratio = %.2f, want ≈0.80", ratio)
	}
	// Stratification: class proportions in train and test must be close.
	frac := func(ss []Sample, sev cvss.Severity) float64 {
		n := 0
		for _, s := range ss {
			if s.V2Sev == sev {
				n++
			}
		}
		return float64(n) / float64(len(ss))
	}
	for _, sev := range []cvss.Severity{cvss.SeverityLow, cvss.SeverityMedium, cvss.SeverityHigh} {
		tr, te := frac(ds.Train, sev), frac(ds.Test, sev)
		if math.Abs(tr-te) > 0.05 {
			t.Errorf("class %v: train %.3f vs test %.3f not stratified", sev, tr, te)
		}
	}
}

func TestBuildDatasetNoDualLabels(t *testing.T) {
	snap := &cve.Snapshot{Entries: []*cve.Entry{{ID: "CVE-2001-0001"}}}
	if _, err := BuildDataset(snap, 1); !errors.Is(err, ErrUntrainable) {
		t.Errorf("snapshot without dual labels: error %v, want ErrUntrainable", err)
	}
}

// TestTrainEmptySplit trains on one dual-labeled CVE: the 80/20 split
// leaves the training side empty, which must be ErrUntrainable too.
func TestTrainEmptySplit(t *testing.T) {
	v2, err := cvss.ParseV2("AV:N/AC:L/Au:N/C:P/I:P/A:P")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := cvss.ParseV3("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
	if err != nil {
		t.Fatal(err)
	}
	snap := &cve.Snapshot{Entries: []*cve.Entry{{ID: "CVE-2017-0001", V2: &v2, V3: &v3}}}
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(ds, []ModelKind{ModelLR}, fastConfig); !errors.Is(err, ErrUntrainable) {
		t.Errorf("one dual-labeled CVE: error %v, want ErrUntrainable", err)
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, AllModels(), fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	evs := eng.Evaluations()
	if len(evs) != 4 {
		t.Fatalf("evaluations = %d", len(evs))
	}
	for _, ev := range evs {
		if ev.AE <= 0 || ev.AE > 3 {
			t.Errorf("%s: AE = %.2f out of plausible range", ev.Model, ev.AE)
		}
		if ev.Accuracy < 0.5 || ev.Accuracy > 1 {
			t.Errorf("%s: accuracy = %.2f out of plausible range", ev.Model, ev.Accuracy)
		}
		if len(ev.ByV2Class) == 0 {
			t.Errorf("%s: no per-class accuracy", ev.Model)
		}
	}
	// The deep models must be competitive: the paper's CNN wins overall.
	best := eng.Evaluation(eng.Best())
	if best.Accuracy < 0.65 {
		t.Errorf("best model accuracy = %.2f, want ≥ 0.65 at small scale (paper: 0.8629 at full scale)", best.Accuracy)
	}

	// Single-row scoring is a one-row batch. Eight goroutines call
	// PredictWith at once over 64 v2-only entries, and every score must
	// equal the batch path's score for the same row; under -race this
	// also shows that no model shares per-call scratch between calls.
	var pending []*cve.Entry
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil && len(pending) < 64 {
			pending = append(pending, e)
		}
	}
	if len(pending) < 64 {
		t.Fatalf("only %d v2-only entries", len(pending))
	}
	rows := make([][]float64, len(pending))
	for i, e := range pending {
		rows[i] = eng.enc.Features(*e.V2, firstConcrete(e.CWEs))
	}
	const callers = 8
	for _, kind := range AllModels() {
		want, err := eng.models[kind].predict(rows, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float64, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]float64, len(pending))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range pending {
					i := (k + 8*g) % len(pending)
					e := pending[i]
					if got[g][i], errs[g] = eng.PredictWith(kind, *e.V2, firstConcrete(e.CWEs)); errs[g] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%s caller %d: %v", kind, g, errs[g])
			}
			for i, v := range got[g] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s caller %d: %s scores %v alone, %v in the batch",
						kind, g, pending[i].ID, v, want[i])
				}
			}
		}
	}
}

func TestPredictRange(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelLR}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, v2s := range []string{
		"AV:N/AC:L/Au:N/C:C/I:C/A:C",
		"AV:L/AC:H/Au:M/C:N/I:N/A:P",
		"AV:N/AC:M/Au:N/C:P/I:P/A:N",
	} {
		v2, _ := cvss.ParseV2(v2s)
		score, err := eng.Predict(v2, cwe.ID(119))
		if err != nil {
			t.Fatal(err)
		}
		if score < 0 || score > 10 {
			t.Errorf("Predict(%s) = %.2f out of range", v2s, score)
		}
	}
	if _, err := eng.PredictWith(ModelCNN, cvss.VectorV2{}, cwe.ID(1)); err == nil {
		t.Error("untrained kind should error")
	}
}

func TestSeverityMonotoneOnScore(t *testing.T) {
	// Higher-scoring v2 vectors should generally predict higher v3:
	// check the extremes with the linear model.
	snap, _ := generateSnapshot(t)
	ds, _ := BuildDataset(snap, 1)
	eng, err := Train(ds, []ModelKind{ModelLR}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	low, _ := cvss.ParseV2("AV:L/AC:H/Au:M/C:N/I:N/A:P")
	high, _ := cvss.ParseV2("AV:N/AC:L/Au:N/C:C/I:C/A:C")
	sLow, _ := eng.Predict(low, cwe.ID(119))
	sHigh, _ := eng.Predict(high, cwe.ID(119))
	if sHigh <= sLow {
		t.Errorf("high v2 predicts %.2f <= low v2 %.2f", sHigh, sLow)
	}
}

func TestBackportAll(t *testing.T) {
	snap, truth := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelLR, ModelDNN}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.BackportAllN(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v2only int
	for _, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil {
			v2only++
			if _, ok := b.Scores[e.ID]; !ok {
				t.Fatalf("%s: not backported", e.ID)
			}
		} else if _, ok := b.Scores[e.ID]; ok {
			t.Fatalf("%s: backported despite having v3", e.ID)
		}
	}
	if len(b.Scores) != v2only {
		t.Errorf("backported %d, want %d", len(b.Scores), v2only)
	}
	// Backported severity should match the hidden true v3 band well
	// above chance (4 classes).
	var hit, total int
	for id, s := range b.Scores {
		trueV3 := truth.TrueV3[id]
		total++
		if cvss.SeverityV3(s) == trueV3.Severity() {
			hit++
		}
	}
	if acc := float64(hit) / float64(total); acc < 0.6 {
		t.Errorf("backport accuracy vs hidden truth = %.2f, want ≥ 0.6", acc)
	}
	// Materialized onto the entries, as the severity stage does, the
	// scores give every entry a pv3 band, and the NVD label wins when
	// present.
	for _, e := range snap.Entries {
		if s, ok := b.Scores[e.ID]; ok {
			e.PV3 = &s
		}
	}
	for _, e := range snap.Entries {
		sev, ok := e.SeverityPV3()
		if !ok {
			t.Fatalf("%s: no pv3 severity", e.ID)
		}
		if e.V3 != nil && sev != e.V3.Severity() {
			t.Fatalf("%s: pv3 %v != labeled %v", e.ID, sev, e.V3.Severity())
		}
	}
}

func TestTransitionMatrices(t *testing.T) {
	snap, _ := generateSnapshot(t)
	pairs := GroundTruthTransitions(snap)
	if len(pairs) == 0 {
		t.Fatal("no ground-truth transitions")
	}
	m := TransitionMatrix(pairs)
	if m.Total() != len(pairs) {
		t.Errorf("matrix total = %d, want %d", m.Total(), len(pairs))
	}
	// Table 4 invariants: L never becomes C, H never becomes L.
	if n := m.Count(0, 3); n != 0 {
		t.Errorf("L→C = %d, want 0", n)
	}
	if n := m.Count(2, 0); n > m.RowTotal(2)/100 {
		t.Errorf("H→L = %d, want ≈0", n)
	}

	ds, _ := BuildDataset(snap, 1)
	eng, err := Train(ds, []ModelKind{ModelDNN}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.BackportAllN(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := PredictedTransitions(snap, b)
	if len(pred) != len(b.Scores) {
		t.Errorf("predicted transitions = %d, want %d", len(pred), len(b.Scores))
	}
	truthT, predT, err := eng.TestTransitionsN(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(truthT) != len(ds.Test) || len(predT) != len(ds.Test) {
		t.Error("test transitions sizes wrong")
	}
}

func TestCorrectCWEs(t *testing.T) {
	snap, truth := generateSnapshot(t)
	registry := cwe.NewRegistry()

	// Count entries whose description leaks a CWE while the field is
	// meta.
	var recoverable int
	for _, e := range snap.Entries {
		if !e.Typed() && len(registry.Validate(cwe.Extract(e.AllDescriptionText()))) > 0 {
			recoverable++
		}
	}
	res := CorrectCWEs(snap, registry)
	if res.Corrected == 0 {
		t.Fatal("nothing corrected")
	}
	if res.FromOther == 0 {
		t.Error("no NVD-CWE-Other corrections — the paper's dominant case")
	}
	if got := res.FromOther + res.FromNoInfo + res.FromUnassigned; got != recoverable {
		t.Errorf("untyped corrections = %d, want %d", got, recoverable)
	}
	// Every corrected untyped entry must now be typed with the true CWE.
	var wrong int
	for _, e := range snap.Entries {
		if !e.Typed() {
			continue
		}
		if e.CWEs[0] != truth.TrueCWE[e.ID] {
			// Typed entries keep their (true) label, corrections add the
			// true one, so the first concrete label must match truth.
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d typed entries have non-truth first label", wrong)
	}
	// Idempotence: a second pass corrects nothing new.
	res2 := CorrectCWEs(snap, registry)
	if res2.Corrected != 0 {
		t.Errorf("second pass corrected %d entries, want 0", res2.Corrected)
	}
}

func TestCorrectCWEsHandCases(t *testing.T) {
	registry := cwe.NewRegistry()
	snap := &cve.Snapshot{Entries: []*cve.Entry{
		{ // paper's CVE-2007-0838 shape: Other + evaluator hint
			ID:   "CVE-2007-0838",
			CWEs: []cwe.ID{cwe.Other},
			Descriptions: []cve.Description{
				{Value: "Loop in parser allows DoS"},
				{Source: "evaluator", Value: "CWE-835: Loop with Unreachable Exit Condition ('Infinite Loop')"},
			},
		},
		{ // typed entry gaining an extra label
			ID:   "CVE-2010-0001",
			CWEs: []cwe.ID{cwe.ID(89)},
			Descriptions: []cve.Description{
				{Value: "SQL injection, related to CWE-79 in output handling"},
			},
		},
		{ // meta only, no hint: untouched
			ID:           "CVE-2010-0002",
			CWEs:         []cwe.ID{cwe.NoInfo},
			Descriptions: []cve.Description{{Value: "An unspecified issue"}},
		},
		{ // unknown CWE id in description: filtered by registry
			ID:           "CVE-2010-0003",
			CWEs:         []cwe.ID{cwe.Other},
			Descriptions: []cve.Description{{Value: "see CWE-999999 for details"}},
		},
	}}
	res := CorrectCWEs(snap, registry)
	if res.Corrected != 2 {
		t.Fatalf("Corrected = %d, want 2", res.Corrected)
	}
	e := snap.ByID("CVE-2007-0838")
	if len(e.CWEs) != 1 || e.CWEs[0] != cwe.ID(835) {
		t.Errorf("CVE-2007-0838 CWEs = %v, want [CWE-835]", e.CWEs)
	}
	e2 := snap.ByID("CVE-2010-0001")
	if len(e2.CWEs) != 2 || e2.CWEs[0] != cwe.ID(89) || e2.CWEs[1] != cwe.ID(79) {
		t.Errorf("CVE-2010-0001 CWEs = %v, want [CWE-89 CWE-79]", e2.CWEs)
	}
	if e3 := snap.ByID("CVE-2010-0002"); len(e3.CWEs) != 1 || e3.CWEs[0] != cwe.NoInfo {
		t.Errorf("CVE-2010-0002 CWEs = %v, want untouched", e3.CWEs)
	}
	if e4 := snap.ByID("CVE-2010-0003"); len(e4.CWEs) != 1 || e4.CWEs[0] != cwe.Other {
		t.Errorf("CVE-2010-0003 CWEs = %v, want untouched", e4.CWEs)
	}
}

func TestTypeClassifier(t *testing.T) {
	snap, _ := generateSnapshot(t)
	tc, acc, err := TrainTypeClassifier(snap, TypeClassifierConfig{Dim: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumClasses() < 20 {
		t.Errorf("classes = %d, want substantial variety", tc.NumClasses())
	}
	// Paper: 65.60% over 151 classes. Our corpus mixes 30% type-free
	// noise descriptions, so accuracy lands in a similar band — demand
	// far-above-chance but below perfect.
	if acc < 0.40 || acc > 0.95 {
		t.Errorf("k-NN accuracy = %.3f, want within (0.40, 0.95)", acc)
	}
	// Smoke-test prediction on an unmistakable description.
	id, err := tc.Predict("SQL injection vulnerability in the login form allows remote attackers to execute arbitrary SQL commands via the id parameter")
	if err != nil {
		t.Fatal(err)
	}
	if id.IsMeta() {
		t.Errorf("prediction = %v", id)
	}
}

func TestTypeClassifierTooFewDocs(t *testing.T) {
	snap := &cve.Snapshot{Entries: []*cve.Entry{{
		ID:           "CVE-2001-0001",
		CWEs:         []cwe.ID{cwe.ID(89)},
		Descriptions: []cve.Description{{Value: "x"}},
	}}}
	if _, _, err := TrainTypeClassifier(snap, TypeClassifierConfig{}); err == nil {
		t.Error("expected error for tiny corpus")
	}
}

func TestModelKindString(t *testing.T) {
	want := map[ModelKind]string{ModelLR: "LR", ModelSVR: "SVR", ModelCNN: "CNN", ModelDNN: "DNN", ModelKind(0): "?"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), s)
		}
	}
}

func BenchmarkEnginePredict(b *testing.B) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelDNN}, fastConfig)
	if err != nil {
		b.Fatal(err)
	}
	v2, _ := cvss.ParseV2("AV:N/AC:M/Au:N/C:P/I:P/A:N")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Predict(v2, cwe.ID(79)); err != nil {
			b.Fatal(err)
		}
	}
}
