// Package experiments drives the reproduction of every table and
// figure in the paper's evaluation: it generates (or accepts) a
// snapshot, runs the full cleaning pipeline once, and renders each
// experiment from the shared artifacts. cmd/nvdreport prints the
// results; the repository's benchmark suite times them.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nvdclean"
	"nvdclean/internal/analysis"
	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/otherdb"
	"nvdclean/internal/parallel"
	"nvdclean/internal/predict"
	"nvdclean/internal/report"
	"nvdclean/internal/stats"
	"nvdclean/internal/webcorpus"
)

// Suite holds the shared artifacts of one reproduction run.
type Suite struct {
	Cfg    gen.Config
	Snap   *cve.Snapshot
	Truth  *gen.Truth
	Uni    *gen.Universe
	Corpus *webcorpus.Corpus
	Result *nvdclean.Result
	// Concurrency bounds RenderAll's parallelism (zero: GOMAXPROCS).
	Concurrency int
	// render, when set, is the per-render worker budget RenderAll
	// hands each experiment so the aggregate bound stays exact; zero
	// (individual renders) means the full Concurrency.
	render int
}

// workers returns the worker bound a render should use internally.
func (s *Suite) workers() int {
	if s.render > 0 {
		return s.render
	}
	return s.Concurrency
}

// Options tunes suite construction.
type Options struct {
	// Scale is the generator configuration.
	Scale gen.Config
	// Models to train; nil trains all four.
	Models []predict.ModelKind
	// ModelConfig tunes training cost.
	ModelConfig predict.ModelConfig
	// Concurrency bounds the parallelism of every pipeline stage and
	// of RenderAll. Zero means GOMAXPROCS; suite artifacts and
	// rendered experiments are identical at any setting.
	Concurrency int
}

// NewSuite generates the snapshot, builds the simulated web, and runs
// the full pipeline.
func NewSuite(ctx context.Context, opts Options) (*Suite, error) {
	snap, truth, uni, err := gen.Generate(opts.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating snapshot: %w", err)
	}
	corpus := webcorpus.New(snap, truth.Disclosure)
	res, err := nvdclean.Clean(ctx, snap, nvdclean.Options{
		Transport:   corpus.Transport(),
		Concurrency: opts.Concurrency,
		Models:      opts.Models,
		ModelConfig: opts.ModelConfig,
		Seed:        opts.Scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: cleaning: %w", err)
	}
	return &Suite{
		Cfg: opts.Scale, Snap: snap, Truth: truth, Uni: uni,
		Corpus: corpus, Result: res, Concurrency: opts.Concurrency,
	}, nil
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID matches the paper's numbering: "fig1", "table2", ….
	ID string
	// Title is the paper caption, abbreviated.
	Title string
	// Render computes and formats the experiment.
	Render func() (string, error)
}

// All returns every experiment in paper order.
func (s *Suite) All() []Experiment {
	return []Experiment{
		{"fig1", "CDF of vulnerability lag times", s.Fig1},
		{"table2", "Vendor naming inconsistency patterns", s.Table2},
		{"table3", "Cross-database name inconsistencies", s.Table3},
		{"table4", "v2 to v3 ground-truth transitions", s.Table4},
		{"table5", "Model prediction errors", s.Table5},
		{"table6", "Predicted transitions for v2-only CVEs", s.Table6},
		{"table7", "Model accuracy by input class", s.Table7},
		{"table8", "Top dates by publication and disclosure", s.Table8},
		{"fig2", "CVEs per day of week", s.Fig2},
		{"table9", "Severity distributions", s.Table9},
		{"fig3", "Yearly severity distributions", s.Fig3},
		{"table10", "Top types by severity", s.Table10},
		{"table11", "Top vendors", s.Table11},
		{"table12", "Mislabeled CVEs by severity", s.Table12},
		{"fig4", "Average lag by severity", s.Fig4},
		{"fig5", "PCA of v2 features", s.Fig5},
		{"table13", "Ground-truth prediction results", s.Table13},
		{"table14", "Test-split ground truth", s.Table14},
		{"table15", "Test-split predictions", s.Table15},
		{"table16", "Mislabeled-vendor case studies", s.Table16},
		{"cwefix", "CWE field correction summary", s.CWEFix},
		{"importance", "Severity-model feature importance", s.Importance},
	}
}

// Rendered is one experiment's computed output.
type Rendered struct {
	ID, Title, Output string
	Err               error
}

// RenderAll computes every experiment concurrently — each render reads
// only the suite's shared artifacts — and returns the results in paper
// order. Outputs are identical to rendering serially; only wall-clock
// time changes with the worker bound. The bound is exact in aggregate:
// renders fan out across at most min(Concurrency, #experiments)
// workers, and each render's internal parallelism (the engine's batch
// scoring, the naming re-analysis) is capped at the remaining share of
// the budget, so total parallelism never multiplies across levels.
func (s *Suite) RenderAll() []Rendered {
	total := parallel.Workers(s.Concurrency)
	exps := s.All()
	outer := len(exps)
	if total < outer {
		outer = total
	}
	inner := total / outer
	if inner < 1 {
		inner = 1
	}
	// Renders go through a shallow copy carrying the per-render share,
	// so individually invoked experiments keep the full budget.
	sub := *s
	sub.render = inner
	exps = sub.All()
	out := make([]Rendered, len(exps))
	parallel.For(outer, len(exps), func(i int) {
		r := Rendered{ID: exps[i].ID, Title: exps[i].Title}
		r.Output, r.Err = exps[i].Render()
		out[i] = r
	})
	return out
}

// Importance renders the §4.3 feature-influence finding ("the
// confidentiality, base score, and integrity are important features")
// via permutation importance of the selected model.
func (s *Suite) Importance() (string, error) {
	ds, err := predict.BuildDataset(s.Result.Cleaned, s.Cfg.Seed)
	if err != nil {
		return "", err
	}
	imp, err := s.Result.Engine.FeatureImportanceN(ds, s.Cfg.Seed, s.workers())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Feature importance of the %s model (accuracy drop when shuffled):\n",
		s.Result.Engine.Best())
	for _, im := range imp {
		fmt.Fprintf(&b, "  %-26s %+.4f\n", im.Feature, im.AccuracyDrop)
	}
	return b.String(), nil
}

// Fig1 renders the lag CDF.
func (s *Suite) Fig1() (string, error) {
	lags := make([]float64, 0, s.Snap.Len())
	for _, e := range s.Snap.Entries {
		if lag, ok := s.Result.LagDays[e.ID]; ok {
			lags = append(lags, float64(lag))
		}
	}
	var b strings.Builder
	if err := report.Fig1(&b, lags); err != nil {
		return "", err
	}
	if err := report.CrawlSummary(&b,
		s.Result.CrawlStats.URLs, s.Result.CrawlStats.Skipped,
		s.Result.CrawlStats.DeadDomain, s.Result.CrawlStats.Fetched,
		s.Result.CrawlStats.Extracted); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Table2 renders the vendor-pattern taxonomy, using the generator's
// ground truth as the confirmation oracle (the paper's manual vetting).
func (s *Suite) Table2() (string, error) {
	va := naming.AnalyzeVendorsN(s.Snap, s.workers())
	tbl := naming.BuildTable2(va, naming.OracleJudge{Canonical: s.Truth.CanonicalVendor})
	var b strings.Builder
	if err := report.Table2(&b, tbl); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "confirm rate: %.2f\n", tbl.ConfirmRate())
	return b.String(), nil
}

// Table3 renders the NVD / SecurityFocus / SecurityTracker summary.
func (s *Suite) Table3() (string, error) {
	rows := []report.Table3Row{{
		Database:           "NVD",
		VendorNames:        s.Snap.DistinctVendors(),
		VendorImpacted:     s.Result.VendorMap.Len(),
		VendorConsolidated: len(s.Result.VendorMap.Targets()),
		ProductNames:       s.Snap.DistinctProducts(),
		ProductImpacted:    s.Result.ProductMap.Len(),
		ProductVendors:     len(s.Result.ProductMap.Vendors()),
		HasProducts:        true,
	}}
	for _, cfg := range []otherdb.Config{otherdb.DefaultSF(), otherdb.DefaultST()} {
		db := otherdb.Build(s.Uni, cfg)
		rows = append(rows, report.OtherDBRow(db.ApplyVendorMap(s.Result.VendorMap)))
	}
	var b strings.Builder
	err := report.Table3(&b, rows)
	return b.String(), err
}

// Table4 renders the ground-truth v2→v3 transition matrix.
func (s *Suite) Table4() (string, error) {
	m := predict.TransitionMatrix(predict.GroundTruthTransitions(s.Snap))
	var b strings.Builder
	err := report.Transition(&b, "Table 4: Transformation from v2 to v3 (ground truth)", m)
	return b.String(), err
}

// Table5 renders model errors.
func (s *Suite) Table5() (string, error) {
	var b strings.Builder
	err := report.Table5(&b, s.Result.Engine.Evaluations())
	return b.String(), err
}

// Table6 renders the predicted transitions of backported CVEs.
func (s *Suite) Table6() (string, error) {
	m := predict.TransitionMatrix(predict.PredictedTransitions(s.Result.Cleaned, s.Result.Backport))
	var b strings.Builder
	err := report.Transition(&b, "Table 6: v2 to predicted v3 for v2-only CVEs", m)
	return b.String(), err
}

// Table7 renders model accuracy.
func (s *Suite) Table7() (string, error) {
	var b strings.Builder
	if err := report.Table7(&b, s.Result.Engine.Evaluations()); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "selected model: %s\n", s.Result.Engine.Best())
	return b.String(), nil
}

// Table8 renders top dates under both date fields.
func (s *Suite) Table8() (string, error) {
	pub := analysis.TopDates(analysis.PublishedDates(s.Snap), 10)
	edd := analysis.TopDates(s.estimatedDates(), 10)
	var b strings.Builder
	err := report.Table8(&b, pub, edd)
	return b.String(), err
}

func (s *Suite) estimatedDates() []time.Time {
	out := make([]time.Time, 0, len(s.Result.EstimatedDisclosure))
	for _, e := range s.Snap.Entries {
		if d, ok := s.Result.EstimatedDisclosure[e.ID]; ok {
			out = append(out, d)
		}
	}
	return out
}

// Fig2 renders the day-of-week comparison.
func (s *Suite) Fig2() (string, error) {
	disc := analysis.DayOfWeekCounts(s.estimatedDates())
	pub := analysis.DayOfWeekCounts(analysis.PublishedDates(s.Snap))
	var b strings.Builder
	err := report.Fig2(&b, disc, pub)
	return b.String(), err
}

// Table9 renders overall severity distributions.
func (s *Suite) Table9() (string, error) {
	v2 := analysis.SeverityDistribution(s.Result.Cleaned, analysis.ScoreV2)
	pv3 := analysis.SeverityDistribution(s.Result.Cleaned, analysis.ScorePV3)
	var b strings.Builder
	err := report.Table9(&b, v2, pv3)
	return b.String(), err
}

// Fig3 renders yearly severity stacks.
func (s *Suite) Fig3() (string, error) {
	yearly := analysis.YearlySeverity(s.Result.Cleaned)
	var b strings.Builder
	err := report.Fig3(&b, yearly)
	return b.String(), err
}

// Table10 renders top types by severity band under the three scorings.
func (s *Suite) Table10() (string, error) {
	cols := map[string][]analysis.TypeCount{
		"v2 High":      analysis.TopTypes(s.Result.Cleaned, analysis.ScoreV2, cvss.SeverityHigh, 10),
		"v3 High":      analysis.TopTypes(s.Result.Cleaned, analysis.ScoreV3, cvss.SeverityHigh, 10),
		"v3 Critical":  analysis.TopTypes(s.Result.Cleaned, analysis.ScoreV3, cvss.SeverityCritical, 10),
		"pv3 High":     analysis.TopTypes(s.Result.Cleaned, analysis.ScorePV3, cvss.SeverityHigh, 10),
		"pv3 Critical": analysis.TopTypes(s.Result.Cleaned, analysis.ScorePV3, cvss.SeverityCritical, 10),
	}
	var b strings.Builder
	err := report.Table10(&b, cols)
	return b.String(), err
}

// Table11 renders top vendors before and after naming fixes.
func (s *Suite) Table11() (string, error) {
	cveAfter := analysis.TopVendorsByCVE(s.Result.Cleaned, 10)
	prodAfter := analysis.TopVendorsByProducts(s.Result.Cleaned, 10)
	// Unbounded "before" lists so the lookup finds vendors that only
	// enter the top 10 after consolidation.
	cveBefore := analysis.TopVendorsByCVE(s.Result.Original, 0)
	prodBefore := analysis.TopVendorsByProducts(s.Result.Original, 0)
	var b strings.Builder
	err := report.Table11(&b, cveAfter, cveBefore, prodAfter, prodBefore)
	return b.String(), err
}

// Table12 renders the mislabeled-CVE severity breakdown.
func (s *Suite) Table12() (string, error) {
	v2 := analysis.MislabeledBySeverity(s.Result.Cleaned, s.Result.VendorChanged, s.Result.ProductChanged, analysis.ScoreV2)
	pv3 := analysis.MislabeledBySeverity(s.Result.Cleaned, s.Result.VendorChanged, s.Result.ProductChanged, analysis.ScorePV3)
	var b strings.Builder
	err := report.Table12(&b, v2, pv3)
	return b.String(), err
}

// Fig4 renders average lag by pv3 severity.
func (s *Suite) Fig4() (string, error) {
	avg := analysis.AvgLagBySeverity(s.Result.Cleaned, s.Result.LagDays, analysis.ScorePV3)
	var b strings.Builder
	err := report.Fig4(&b, avg)
	return b.String(), err
}

// Fig5 renders the PCA of the dual-labeled feature space: the pooled
// view plus the paper's per-v2-band sub-figures 5(a)–(c), which show
// how vulnerabilities of each v2 class scatter across their resulting
// v3 labels.
func (s *Suite) Fig5() (string, error) {
	enc := predict.NeutralCWEEncoder()
	var rows [][]float64
	var v3Labels, v2Labels []cvss.Severity
	for _, e := range s.Snap.Entries {
		if e.V2 == nil || e.V3 == nil {
			continue
		}
		rows = append(rows, enc.Features(*e.V2, firstCWE(e)))
		v3Labels = append(v3Labels, e.V3.Severity())
		v2Labels = append(v2Labels, e.V2.Severity())
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("experiments: no dual-labeled CVEs for PCA")
	}
	p, err := stats.FitPCA(rows, 3)
	if err != nil {
		return "", err
	}
	proj, err := p.TransformAll(rows)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := report.Fig5(&b, p, proj, v3Labels); err != nil {
		return "", err
	}
	// Sub-figures (a)-(c): one projection summary per v2 input band.
	for _, band := range []cvss.Severity{cvss.SeverityLow, cvss.SeverityMedium, cvss.SeverityHigh} {
		var subProj [][]float64
		var subLabels []cvss.Severity
		for i := range rows {
			if v2Labels[i] != band {
				continue
			}
			subProj = append(subProj, proj[i])
			subLabels = append(subLabels, v3Labels[i])
		}
		if len(subProj) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nFigure 5(%s): v2 %s vulnerabilities by resulting v3 label\n",
			strings.ToLower(band.Abbrev()), band)
		if err := report.Fig5Band(&b, subProj, subLabels); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func firstCWE(e *cve.Entry) cwe.ID {
	for _, c := range e.CWEs {
		if !c.IsMeta() {
			return c
		}
	}
	return cwe.Unassigned
}

// Table13 renders the best model's predictions over the whole ground
// truth (train + test), the appendix A.2 sanity check.
func (s *Suite) Table13() (string, error) {
	ds, err := predict.BuildDataset(s.Result.Cleaned, s.Cfg.Seed)
	if err != nil {
		return "", err
	}
	full := &predict.Dataset{
		Test:    append(append([]predict.Sample{}, ds.Train...), ds.Test...),
		Encoder: ds.Encoder,
	}
	_, pred, err := s.Result.Engine.TestTransitionsN(full, s.workers())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = report.Transition(&b, "Table 13: Ground truth — prediction results", predict.TransitionMatrix(pred))
	return b.String(), err
}

// Table14 renders the test split's true transitions.
func (s *Suite) Table14() (string, error) {
	ds, err := predict.BuildDataset(s.Result.Cleaned, s.Cfg.Seed)
	if err != nil {
		return "", err
	}
	truth, _, err := s.Result.Engine.TestTransitionsN(ds, s.workers())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = report.Transition(&b, "Table 14: Test dataset — ground truth", predict.TransitionMatrix(truth))
	return b.String(), err
}

// Table15 renders the test split's predicted transitions.
func (s *Suite) Table15() (string, error) {
	ds, err := predict.BuildDataset(s.Result.Cleaned, s.Cfg.Seed)
	if err != nil {
		return "", err
	}
	_, pred, err := s.Result.Engine.TestTransitionsN(ds, s.workers())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = report.Transition(&b, "Table 15: Test dataset — prediction results", predict.TransitionMatrix(pred))
	return b.String(), err
}

// Table16 renders sampled mislabeled-vendor case studies.
func (s *Suite) Table16() (string, error) {
	cases := analysis.SampleCaseStudies(s.Result.Original, s.Result.VendorChanged, 10, s.Cfg.Seed)
	var b strings.Builder
	err := report.Table16(&b, cases)
	return b.String(), err
}

// CWEFix summarizes the §4.4 correction counts.
func (s *Suite) CWEFix() (string, error) {
	c := s.Result.CWECorrection
	var b strings.Builder
	fmt.Fprintln(&b, "CWE field correction (§4.4):")
	fmt.Fprintf(&b, "  corrected CVEs:        %d\n", c.Corrected)
	fmt.Fprintf(&b, "  from NVD-CWE-Other:    %d\n", c.FromOther)
	fmt.Fprintf(&b, "  from NVD-CWE-noinfo:   %d\n", c.FromNoInfo)
	fmt.Fprintf(&b, "  from unassigned:       %d\n", c.FromUnassigned)
	fmt.Fprintf(&b, "  typed gaining labels:  %d\n", c.FromTyped)
	return b.String(), nil
}

// CrawlResults re-runs the §4.1 crawl with a given top-K, for the
// domain-coverage ablation.
func (s *Suite) CrawlResults(ctx context.Context, topK int) (crawler.Stats, error) {
	c, err := crawler.New(crawler.Config{
		Transport:   s.Corpus.Transport(),
		TopK:        topK,
		Concurrency: s.Concurrency,
	})
	if err != nil {
		return crawler.Stats{}, err
	}
	_, stats, err := c.EstimateAll(ctx, s.Snap)
	return stats, err
}
