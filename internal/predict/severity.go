package predict

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/parallel"
	"nvdclean/internal/stats"
)

// Sample is one ground-truth training example: a dual-labeled CVE.
type Sample struct {
	ID       string
	Features []float64
	// V2Sev is the v2 severity band (the "input class" of Table 7).
	V2Sev cvss.Severity
	// TargetScore is the true v3 base score.
	TargetScore float64
}

// Dataset is the §4.3 ground truth: the ≈37K CVEs carrying both CVSS
// versions, split 80/20 "evenly distributed among classes". Encoder is
// the CWE target encoder fitted on the training split only.
type Dataset struct {
	Train, Test []Sample
	Encoder     *CWEEncoder
}

// BuildDataset extracts dual-labeled entries and performs a stratified
// 80/20 split, shuffled deterministically by seed. The CWE encoder is
// fitted on the training split to avoid target leakage, then both
// splits are featurized with it.
func BuildDataset(snap *cve.Snapshot, seed int64) (*Dataset, error) {
	type raw struct {
		id      string
		v2      cvss.VectorV2
		cweID   cwe.ID
		v2Score float64
		v3Score float64
	}
	byClass := make(map[cvss.Severity][]raw)
	for _, e := range snap.Entries {
		if e.V2 == nil || e.V3 == nil {
			continue
		}
		r := raw{
			id:      e.ID,
			v2:      *e.V2,
			cweID:   firstConcrete(e.CWEs),
			v2Score: e.V2.BaseScore(),
			v3Score: e.V3.BaseScore(),
		}
		byClass[r.v2.Severity()] = append(byClass[r.v2.Severity()], r)
	}
	if len(byClass) == 0 {
		return nil, errors.New("predict: snapshot has no dual-labeled CVEs")
	}
	rng := rand.New(rand.NewSource(seed))
	classes := make([]cvss.Severity, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var trainRaw, testRaw []raw
	for _, c := range classes {
		rows := byClass[c]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cut := len(rows) * 8 / 10
		trainRaw = append(trainRaw, rows[:cut]...)
		testRaw = append(testRaw, rows[cut:]...)
	}
	rng.Shuffle(len(trainRaw), func(i, j int) { trainRaw[i], trainRaw[j] = trainRaw[j], trainRaw[i] })

	ids := make([]cwe.ID, len(trainRaw))
	v2s := make([]float64, len(trainRaw))
	v3s := make([]float64, len(trainRaw))
	for i, r := range trainRaw {
		ids[i] = r.cweID
		v2s[i] = r.v2Score
		v3s[i] = r.v3Score
	}
	enc := FitCWEEncoder(ids, v2s, v3s)

	ds := &Dataset{Encoder: enc}
	materialize := func(rows []raw) []Sample {
		out := make([]Sample, len(rows))
		for i, r := range rows {
			out[i] = Sample{
				ID:          r.id,
				Features:    enc.Features(r.v2, r.cweID),
				V2Sev:       r.v2.Severity(),
				TargetScore: r.v3Score,
			}
		}
		return out
	}
	ds.Train = materialize(trainRaw)
	ds.Test = materialize(testRaw)
	return ds, nil
}

func firstConcrete(ids []cwe.ID) cwe.ID {
	for _, id := range ids {
		if !id.IsMeta() {
			return id
		}
	}
	return cwe.Unassigned
}

// DatasetFingerprint hashes everything BuildDataset consumes from a
// snapshot: the ordered sequence of dual-labeled entries with the
// exact fields that become features, classes and targets, plus the
// split seed. Two snapshots with equal fingerprints yield bit-identical
// datasets, so a trained engine carries over — the warm-start check of
// incremental cleaning. A feed delta that only touches v2-only CVEs
// (the common case: backporting exists because new entries lack v3)
// leaves the fingerprint unchanged.
//
// Each entry's fields are hashed as one record assembled in a reused
// buffer, so the fingerprint allocates nothing; the bytes, and so the
// value persisted in checkpoints, are those of hashing the fields one
// by one.
func DatasetFingerprint(snap *cve.Snapshot, seed int64) uint64 {
	h := fnv.New64a()
	var buf [64]byte
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(seed)))
	for _, e := range snap.Entries {
		if e.V2 == nil || e.V3 == nil {
			continue
		}
		b := append(buf[:0], e.ID...)
		b = append(b, 0)
		b = e.V2.Append(b)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(firstConcrete(e.CWEs))))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.V3.BaseScore()))
		h.Write(b)
	}
	return h.Sum64()
}

// Evaluation holds the Table 5 and Table 7 metrics for one model.
type Evaluation struct {
	Model ModelKind
	// AE is the average absolute error of the v3 score (Table 5).
	AE float64
	// AER is the average error rate Σ|y-f|/y / N (Table 5).
	AER float64
	// Accuracy is the fraction of test samples whose predicted severity
	// band matches the true v3 band (Table 7 "Overall").
	Accuracy float64
	// ByV2Class maps the sample's v2 band to the band-match accuracy
	// (Table 7 "By input class").
	ByV2Class map[cvss.Severity]float64
}

// Engine is a trained severity-backporting engine.
type Engine struct {
	cfg    ModelConfig
	enc    *CWEEncoder
	models map[ModelKind]Regressor
	evals  map[ModelKind]*Evaluation
	best   ModelKind
}

// Train fits every model in the zoo on ds and evaluates each on the
// held-out test set, selecting the most accurate model (the paper
// selects the CNN at 86.29%). Model kinds train concurrently — they
// are independent given the shared read-only dataset — and each kind's
// own training parallelism is bounded by cfg.Workers; selection walks
// kinds in Table 5 order, so the engine is identical at any
// concurrency.
func Train(ds *Dataset, kinds []ModelKind, cfg ModelConfig) (*Engine, error) {
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		return nil, errors.New("predict: empty dataset split")
	}
	if len(kinds) == 0 {
		kinds = AllModels()
	}
	x := make([][]float64, len(ds.Train))
	y := make([]float64, len(ds.Train))
	for i, s := range ds.Train {
		x[i] = s.Features
		y[i] = s.TargetScore
	}
	eng := &Engine{
		cfg:    cfg,
		enc:    ds.Encoder,
		models: make(map[ModelKind]Regressor, len(kinds)),
		evals:  make(map[ModelKind]*Evaluation, len(kinds)),
	}
	if eng.enc == nil {
		eng.enc = NeutralCWEEncoder()
	}
	// Split the worker budget between the two levels of parallelism so
	// the total stays within cfg.Workers: kinds fan out first, and each
	// kind's kernels get the remaining share (all of it when a single
	// kind trains).
	total := parallel.Workers(cfg.Workers)
	kindWorkers := len(kinds)
	if kindWorkers > total {
		kindWorkers = total
	}
	inner := cfg
	inner.Workers = total / kindWorkers
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	models := make([]Regressor, len(kinds))
	evals := make([]*Evaluation, len(kinds))
	err := parallel.ForErr(kindWorkers, len(kinds), func(i int) error {
		kind := kinds[i]
		model, err := trainModel(kind, x, y, inner)
		if err != nil {
			return fmt.Errorf("predict: training %s: %w", kind, err)
		}
		ev, err := evaluate(kind, model, ds.Test, inner.Workers)
		if err != nil {
			return fmt.Errorf("predict: evaluating %s: %w", kind, err)
		}
		models[i], evals[i] = model, ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	bestAcc := -1.0
	for i, kind := range kinds {
		eng.models[kind] = models[i]
		eng.evals[kind] = evals[i]
		if evals[i].Accuracy > bestAcc {
			bestAcc = evals[i].Accuracy
			eng.best = kind
		}
	}
	return eng, nil
}

func evaluate(kind ModelKind, model Regressor, test []Sample, workers int) (*Evaluation, error) {
	ev := &Evaluation{Model: kind, ByV2Class: make(map[cvss.Severity]float64)}
	classTotal := make(map[cvss.Severity]int)
	classHit := make(map[cvss.Severity]int)
	// Score the whole split in parallel, then fold the metrics in
	// sample order — the integer and float accumulators see the same
	// sequence a serial evaluation would.
	rows := make([][]float64, len(test))
	for i, s := range test {
		rows[i] = s.Features
	}
	preds, err := predictAll(model, rows, workers)
	if err != nil {
		return nil, err
	}
	var sumErr, sumRate float64
	var nRate, hits int
	for i, s := range test {
		pred := preds[i]
		diff := abs(pred - s.TargetScore)
		sumErr += diff
		if s.TargetScore > 0 {
			sumRate += diff / s.TargetScore
			nRate++
		}
		classTotal[s.V2Sev]++
		if cvss.SeverityV3(pred) == cvss.SeverityV3(s.TargetScore) {
			hits++
			classHit[s.V2Sev]++
		}
	}
	n := float64(len(test))
	ev.AE = sumErr / n
	if nRate > 0 {
		ev.AER = sumRate / float64(nRate)
	}
	ev.Accuracy = float64(hits) / n
	for c, total := range classTotal {
		ev.ByV2Class[c] = float64(classHit[c]) / float64(total)
	}
	return ev, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Best returns the selected model kind.
func (e *Engine) Best() ModelKind { return e.best }

// Evaluation returns the metrics for one model kind (nil if the kind
// was not trained).
func (e *Engine) Evaluation(kind ModelKind) *Evaluation { return e.evals[kind] }

// Evaluations returns all metrics in Table 5 order.
func (e *Engine) Evaluations() []*Evaluation {
	out := make([]*Evaluation, 0, len(e.evals))
	for _, k := range AllModels() {
		if ev, ok := e.evals[k]; ok {
			out = append(out, ev)
		}
	}
	return out
}

// Predict runs the selected model on a v2 vector and CWE type,
// returning the predicted v3 base score.
func (e *Engine) Predict(v2 cvss.VectorV2, id cwe.ID) (float64, error) {
	return e.PredictWith(e.best, v2, id)
}

// PredictWith runs a specific model.
func (e *Engine) PredictWith(kind ModelKind, v2 cvss.VectorV2, id cwe.ID) (float64, error) {
	m, ok := e.models[kind]
	if !ok {
		return 0, fmt.Errorf("predict: model %s not trained", kind)
	}
	return m.Predict(e.enc.Features(v2, id))
}

// Backport holds predicted v3 scores for v2-only CVEs (§4.3
// "Improvement Impact": the 74K CVEs gaining severity labels).
type Backport struct {
	// Scores maps CVE ID to the predicted v3 base score.
	Scores map[string]float64
}

// BackportAll predicts v3 scores for every entry lacking one — the
// §4.3 bulk path (the paper's 74K v2-only CVEs) — scoring entries in
// parallel with the engine's configured workers.
func (e *Engine) BackportAll(snap *cve.Snapshot) (*Backport, error) {
	return e.BackportAllN(snap, 0)
}

// BackportAllN is BackportAll with a per-call worker budget (zero or
// negative falls back to the engine's configured workers). Callers
// that fan several engine batch calls out concurrently — the
// experiments suite — pass their budget share here so the aggregate
// parallelism stays bounded. Predicted scores are identical at any
// setting.
func (e *Engine) BackportAllN(snap *cve.Snapshot, workers int) (*Backport, error) {
	if workers <= 0 {
		workers = e.cfg.Workers
	}
	var pending []*cve.Entry
	for _, entry := range snap.Entries {
		if entry.V2 != nil && entry.V3 == nil {
			pending = append(pending, entry)
		}
	}
	rows := make([][]float64, len(pending))
	parallel.For(workers, len(pending), func(i int) {
		rows[i] = e.enc.Features(*pending[i].V2, firstConcrete(pending[i].CWEs))
	})
	model, ok := e.models[e.best]
	if !ok {
		return nil, errors.New("predict: engine has no trained model")
	}
	preds, err := predictAll(model, rows, workers)
	if err != nil {
		return nil, fmt.Errorf("predict: backporting: %w", err)
	}
	b := &Backport{Scores: make(map[string]float64, len(pending))}
	for i, entry := range pending {
		b.Scores[entry.ID] = preds[i]
	}
	return b, nil
}

// severityNames are the transition-matrix axes (L, M, H, C).
var severityNames = []string{"L", "M", "H", "C"}

func severityIndex(s cvss.Severity) int {
	switch s {
	case cvss.SeverityLow, cvss.SeverityNone:
		return 0
	case cvss.SeverityMedium:
		return 1
	case cvss.SeverityHigh:
		return 2
	default:
		return 3
	}
}

// TransitionMatrix builds a v2→v3 severity confusion table from
// (v2Sev, v3Sev) pairs — the layout of Tables 4, 6, 13, 14 and 15.
func TransitionMatrix(pairs [][2]cvss.Severity) *stats.Confusion {
	c := stats.NewConfusion(severityNames)
	for _, p := range pairs {
		_ = c.Add(severityIndex(p[0]), severityIndex(p[1]))
	}
	return c
}

// GroundTruthTransitions extracts the Table 4 pairs (v2 band, actual v3
// band) from all dual-labeled entries.
func GroundTruthTransitions(snap *cve.Snapshot) [][2]cvss.Severity {
	var out [][2]cvss.Severity
	for _, e := range snap.Entries {
		if e.V2 == nil || e.V3 == nil {
			continue
		}
		out = append(out, [2]cvss.Severity{e.V2.Severity(), e.V3.Severity()})
	}
	return out
}

// PredictedTransitions extracts the Table 6 pairs (v2 band, predicted
// v3 band) for backported CVEs.
func PredictedTransitions(snap *cve.Snapshot, b *Backport) [][2]cvss.Severity {
	var out [][2]cvss.Severity
	for _, e := range snap.Entries {
		if e.V2 == nil {
			continue
		}
		s, ok := b.Scores[e.ID]
		if !ok {
			continue
		}
		out = append(out, [2]cvss.Severity{e.V2.Severity(), cvss.SeverityV3(s)})
	}
	return out
}

// TestTransitions computes Table 14 (ground truth on the test split)
// and Table 15 (model predictions on the test split), scoring the
// split in parallel with the engine's configured workers.
func (e *Engine) TestTransitions(ds *Dataset) (truth, predicted [][2]cvss.Severity, err error) {
	return e.TestTransitionsN(ds, 0)
}

// TestTransitionsN is TestTransitions with a per-call worker budget
// (zero or negative falls back to the engine's configured workers).
func (e *Engine) TestTransitionsN(ds *Dataset, workers int) (truth, predicted [][2]cvss.Severity, err error) {
	if workers <= 0 {
		workers = e.cfg.Workers
	}
	m := e.models[e.best]
	rows := make([][]float64, len(ds.Test))
	for i, s := range ds.Test {
		rows[i] = s.Features
	}
	preds, err := predictAll(m, rows, workers)
	if err != nil {
		return nil, nil, err
	}
	truth = make([][2]cvss.Severity, len(ds.Test))
	predicted = make([][2]cvss.Severity, len(ds.Test))
	for i, s := range ds.Test {
		truth[i] = [2]cvss.Severity{s.V2Sev, cvss.SeverityV3(s.TargetScore)}
		predicted[i] = [2]cvss.Severity{s.V2Sev, cvss.SeverityV3(preds[i])}
	}
	return truth, predicted, nil
}
