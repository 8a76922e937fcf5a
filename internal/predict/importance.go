package predict

import (
	"errors"
	"math/rand"
	"sort"

	"nvdclean/internal/cvss"
)

// FeatureNames labels the 13 feature slots for importance reporting.
var FeatureNames = [NumFeatures]string{
	"access vector", "access complexity", "authentication",
	"confidentiality", "integrity", "availability",
	"base score", "impact subscore", "exploitability subscore",
	"all-privilege flag", "user-privilege flag", "other-privilege flag",
	"cwe type",
}

// Importance is one feature's permutation importance: the accuracy the
// model loses when that feature's values are shuffled across the test
// set, breaking its relationship with the target. The paper reports the
// confidentiality impact, base score and integrity as the most
// influential inputs of its prediction engine (§4.3).
type Importance struct {
	Feature string
	// AccuracyDrop is baseline accuracy minus shuffled accuracy;
	// higher means more important. Slightly negative values are noise.
	AccuracyDrop float64
}

// FeatureImportanceN computes permutation importance of every feature
// for the engine's selected model over the dataset's test split,
// scoring with up to workers goroutines (zero or negative falls back
// to the engine's configured workers). The result is identical at any
// setting.
func (e *Engine) FeatureImportanceN(ds *Dataset, seed int64, workers int) ([]Importance, error) {
	model, ok := e.models[e.best]
	if !ok {
		return nil, errors.New("predict: engine has no trained model")
	}
	if len(ds.Test) == 0 {
		return nil, errors.New("predict: empty test split")
	}
	if workers <= 0 {
		workers = e.cfg.Workers
	}
	baseline, err := bandAccuracy(model, ds.Test, -1, nil, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Importance, 0, NumFeatures)
	perm := make([]int, len(ds.Test))
	for j := 0; j < NumFeatures; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		acc, err := bandAccuracy(model, ds.Test, j, perm, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, Importance{Feature: FeatureNames[j], AccuracyDrop: baseline - acc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AccuracyDrop > out[j].AccuracyDrop })
	return out, nil
}

// bandAccuracy scores severity-band accuracy, optionally with feature
// column `shuffle` replaced by a permutation of itself. The shuffled
// rows are materialized up front so the model can score them as one
// parallel batch.
func bandAccuracy(model Regressor, test []Sample, shuffle int, perm []int, workers int) (float64, error) {
	rows := make([][]float64, len(test))
	for i, s := range test {
		if shuffle < 0 {
			rows[i] = s.Features
			continue
		}
		row := append([]float64(nil), s.Features...)
		row[shuffle] = test[perm[i]].Features[shuffle]
		rows[i] = row
	}
	preds, err := model.predict(rows, workers)
	if err != nil {
		return 0, err
	}
	var hits int
	for i, s := range test {
		if cvss.SeverityV3(preds[i]) == cvss.SeverityV3(s.TargetScore) {
			hits++
		}
	}
	return float64(hits) / float64(len(test)), nil
}
