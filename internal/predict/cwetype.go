package predict

import (
	"errors"
	"fmt"
	"math/rand"

	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/embed"
	"nvdclean/internal/ml"
	"nvdclean/internal/parallel"
)

// CWECorrection is the §4.4 regex-based fix: extract CWE IDs embedded
// in the free-form descriptions, validate them against the CWE list,
// add them to the CWE field, and drop meta labels once a concrete type
// is known. The paper corrects 2,456 CVEs this way.
type CWECorrection struct {
	// Corrected counts entries whose CWE field changed.
	Corrected int
	// FromOther, FromNoInfo, FromUnassigned, FromTyped break the
	// corrections down by the field's prior state (the paper: 1,732
	// NVD-CWE-Other, 14 noinfo/unassigned, the rest already typed).
	FromOther, FromNoInfo, FromUnassigned, FromTyped int
}

// CorrectionKind classifies one entry's §4.4 correction by the CWE
// field's prior state — the paper's breakdown rows.
type CorrectionKind int

// Correction kinds.
const (
	// CorrectionNone means the entry's CWE field was left alone.
	CorrectionNone CorrectionKind = iota
	// CorrectionFromOther replaced an NVD-CWE-Other meta label.
	CorrectionFromOther
	// CorrectionFromNoInfo replaced an NVD-CWE-noinfo meta label.
	CorrectionFromNoInfo
	// CorrectionFromUnassigned typed a previously unassigned entry.
	CorrectionFromUnassigned
	// CorrectionFromTyped added labels to an already typed entry.
	CorrectionFromTyped
)

// EntryCorrection is the §4.4 outcome for a single entry. It is a pure
// function of the entry's descriptions and prior CWE field, which is
// what lets incremental cleaning replay cached outcomes for entries a
// feed delta did not touch.
type EntryCorrection struct {
	// CWEs is the corrected field; meaningful only when Changed.
	CWEs []cwe.ID
	// Changed reports whether the field was rewritten.
	Changed bool
	// Kind is the breakdown bucket of the correction.
	Kind CorrectionKind
}

// CorrectEntryCWEs computes the §4.4 fix for one entry without
// modifying it: extract CWE IDs embedded in the descriptions, validate
// them, merge with existing concrete labels, and drop meta labels once
// a concrete type is known.
func CorrectEntryCWEs(e *cve.Entry, registry *cwe.Registry) EntryCorrection {
	extracted := registry.Validate(cwe.Extract(e.AllDescriptionText()))
	if len(extracted) == 0 {
		return EntryCorrection{}
	}
	// Merge with existing concrete labels; drop meta entries.
	var merged []cwe.ID
	seen := make(map[cwe.ID]struct{})
	hadMeta := false
	for _, id := range e.CWEs {
		if id.IsMeta() {
			hadMeta = true
			continue
		}
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			merged = append(merged, id)
		}
	}
	priorTyped := len(merged) > 0
	added := false
	for _, id := range extracted {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			merged = append(merged, id)
			added = true
		}
	}
	if !added && !hadMeta {
		return EntryCorrection{} // nothing changed
	}
	if !added && hadMeta && !priorTyped {
		return EntryCorrection{} // only meta labels and nothing concrete extracted
	}
	kind := CorrectionFromUnassigned
	switch {
	case priorTyped:
		if !added {
			return EntryCorrection{}
		}
		kind = CorrectionFromTyped
	case hadMeta && containsMeta(e.CWEs, cwe.Other):
		kind = CorrectionFromOther
	case hadMeta && containsMeta(e.CWEs, cwe.NoInfo):
		kind = CorrectionFromNoInfo
	}
	return EntryCorrection{CWEs: merged, Changed: true, Kind: kind}
}

// Record folds one entry's outcome into the summary counters.
func (c *CWECorrection) Record(ec EntryCorrection) { c.add(ec, 1) }

// Unrecord takes back an outcome Record folded in, so a summary can be
// patched for an entry whose outcome changed.
func (c *CWECorrection) Unrecord(ec EntryCorrection) { c.add(ec, -1) }

func (c *CWECorrection) add(ec EntryCorrection, n int) {
	if !ec.Changed {
		return
	}
	c.Corrected += n
	switch ec.Kind {
	case CorrectionFromOther:
		c.FromOther += n
	case CorrectionFromNoInfo:
		c.FromNoInfo += n
	case CorrectionFromUnassigned:
		c.FromUnassigned += n
	case CorrectionFromTyped:
		c.FromTyped += n
	}
}

// CorrectCWEs rewrites the snapshot's CWE fields in place.
func CorrectCWEs(snap *cve.Snapshot, registry *cwe.Registry) *CWECorrection {
	res := &CWECorrection{}
	for _, e := range snap.Entries {
		ec := CorrectEntryCWEs(e, registry)
		if ec.Changed {
			e.CWEs = ec.CWEs
		}
		res.Record(ec)
	}
	return res
}

func containsMeta(ids []cwe.ID, meta cwe.ID) bool {
	for _, id := range ids {
		if id == meta {
			return true
		}
	}
	return false
}

// TypeClassifier is the §4.4 k-NN description→CWE model over sentence
// embeddings ("k-NN (k = 1) provides the best results, predicting 151
// different types with 65.60% accuracy").
type TypeClassifier struct {
	enc *embed.Encoder
	knn *ml.KNN
	// classes maps the dense k-NN label space back to CWE IDs.
	classes []cwe.ID
}

// TypeClassifierConfig tunes the classifier.
type TypeClassifierConfig struct {
	// K is the neighbor count (paper: 1). Zero means 1.
	K int
	// Dim overrides the embedding dimensionality (default 512).
	Dim int
	// Seed drives the train/test shuffle.
	Seed int64
	// MaxDocs caps the corpus size with a deterministic subsample after
	// shuffling. Brute-force k-NN is quadratic, so full-scale corpora
	// (100K+ descriptions) are impractical without a cap. Zero means no
	// cap.
	MaxDocs int
	// Workers bounds embedding and evaluation parallelism. Zero means
	// GOMAXPROCS; the classifier and its accuracy are identical at any
	// setting.
	Workers int
}

// TrainTypeClassifier fits the classifier on every typed CVE of the
// snapshot, holding out a 20% test split, and returns the classifier
// plus its test accuracy.
func TrainTypeClassifier(snap *cve.Snapshot, cfg TypeClassifierConfig) (*TypeClassifier, float64, error) {
	type doc struct {
		text  string
		label cwe.ID
	}
	var docs []doc
	for _, e := range snap.Entries {
		id := firstConcrete(e.CWEs)
		if id.IsMeta() {
			continue
		}
		docs = append(docs, doc{text: e.Description(), label: id})
	}
	if len(docs) < 10 {
		return nil, 0, errors.New("predict: too few typed CVEs to train on")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	if cfg.MaxDocs > 0 && len(docs) > cfg.MaxDocs {
		docs = docs[:cfg.MaxDocs]
	}

	opts := []embed.Option{}
	if cfg.Dim > 0 {
		opts = append(opts, embed.WithDim(cfg.Dim))
	}
	enc := embed.NewEncoder(opts...)
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.text
	}
	enc.Fit(texts)

	// Dense label space.
	classIdx := make(map[cwe.ID]int)
	var classes []cwe.ID
	labelOf := func(id cwe.ID) int {
		if i, ok := classIdx[id]; ok {
			return i
		}
		classIdx[id] = len(classes)
		classes = append(classes, id)
		return len(classes) - 1
	}

	// Embedding is per-document independent; fan it out. Labels stay
	// serial so the dense label space is assigned in document order.
	cut := len(docs) * 8 / 10
	trainX := make([][]float64, cut)
	trainY := make([]int, cut)
	parallel.For(cfg.Workers, cut, func(i int) {
		trainX[i] = enc.Encode(docs[i].text)
	})
	for i := 0; i < cut; i++ {
		trainY[i] = labelOf(docs[i].label)
	}
	knn := &ml.KNN{K: cfg.K, Workers: cfg.Workers}
	if err := knn.Fit(trainX, trainY); err != nil {
		return nil, 0, err
	}
	tc := &TypeClassifier{enc: enc, knn: knn, classes: classes}

	// Held-out evaluation: embed and classify the test split as one
	// parallel batch.
	testRows := make([][]float64, len(docs)-cut)
	parallel.For(cfg.Workers, len(testRows), func(i int) {
		testRows[i] = enc.Encode(docs[cut+i].text)
	})
	preds, err := knn.PredictBatch(testRows)
	if err != nil {
		return nil, 0, err
	}
	var correct, total int
	for i, p := range preds {
		total++
		if p >= 0 && p < len(classes) && classes[p] == docs[cut+i].label {
			correct++
		}
	}
	acc := 0.0
	if total > 0 {
		acc = float64(correct) / float64(total)
	}
	return tc, acc, nil
}

// NumClasses returns the number of distinct CWE classes seen in
// training (the paper's 151).
func (tc *TypeClassifier) NumClasses() int { return len(tc.classes) }

// Predict classifies one description.
func (tc *TypeClassifier) Predict(description string) (cwe.ID, error) {
	label, err := tc.knn.Predict(tc.enc.Encode(description))
	if err != nil {
		return cwe.Unassigned, err
	}
	if label < 0 || label >= len(tc.classes) {
		return cwe.Unassigned, fmt.Errorf("predict: label %d out of range", label)
	}
	return tc.classes[label], nil
}
