package nvdclean

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
	"nvdclean/internal/suggest"
)

// Advisor is the reporter-assistance interface of §6: name suggestion
// against the consistent database produced by a Clean run.
type Advisor = suggest.Advisor

// Suggestion is one ranked candidate name.
type Suggestion = suggest.Suggestion

// Advisor builds the §6 reporter-assistance tool over the cleaned
// snapshot and the consolidation maps, so inconsistent spellings typed
// by reporters resolve to consistent names.
func (r *Result) Advisor() *Advisor {
	return suggest.NewAdvisor(r.Cleaned, r.VendorMap, r.ProductMap)
}

// EntryAssessment is the pipeline's §6 "incremental reporting" output
// for one new or modified CVE: everything an NVD analyst would want
// before accepting the entry.
type EntryAssessment struct {
	// EstimatedDisclosure is the minimum reference-page date (or the
	// entry's own publication date when no reference yields one).
	EstimatedDisclosure time.Time
	// LagDays is the publication lag implied by the estimate.
	LagDays int
	// VendorSuggestions maps each vendor name in the entry's CPEs to
	// ranked consistent alternatives (empty for exact canonical names).
	VendorSuggestions map[string][]Suggestion
	// ExtractedCWEs are concrete weakness types found in the entry's
	// descriptions (§4.4 regex).
	ExtractedCWEs []cwe.ID
	// PredictedV3 is the backported v3 base score, the one the Clean
	// run's severity stage gives the entry (present when that run
	// trained an engine and the entry has a v2 vector but no v3 label).
	PredictedV3 float64
	// PredictedSeverity is the corresponding band.
	PredictedSeverity cvss.Severity
	// HasPrediction reports whether PredictedV3 is meaningful.
	HasPrediction bool
}

// AssessEntry runs the §6 analyst workflow on one entry using the
// artifacts of a prior Clean run: estimate its disclosure date from its
// references (transport may be nil to skip crawling), suggest
// consistent vendor names, extract description CWEs, and predict a v3
// severity from the entry's v2 vector and §4.4-corrected CWE field, as
// the severity stage does. The entry is not modified. Each call builds
// the Result's Advisor for the vendor suggestions, a pass over the
// whole cleaned snapshot.
func (r *Result) AssessEntry(ctx context.Context, e *Entry, transport http.RoundTripper) (*EntryAssessment, error) {
	return r.assessEntry(ctx, e, transport, r.Advisor())
}

// assessEntry is AssessEntry with the vendor suggestions taken from
// advisor, which must be r's.
func (r *Result) assessEntry(ctx context.Context, e *Entry, transport http.RoundTripper, advisor *Advisor) (*EntryAssessment, error) {
	if e == nil {
		return nil, fmt.Errorf("nvdclean: nil entry")
	}
	out := &EntryAssessment{
		EstimatedDisclosure: e.Published,
		VendorSuggestions:   make(map[string][]Suggestion),
	}

	if transport != nil && len(e.References) > 0 {
		c, err := crawler.New(crawler.Config{Transport: transport})
		if err != nil {
			return nil, fmt.Errorf("nvdclean: building crawler: %w", err)
		}
		est, _, err := c.EstimateEntries(ctx, []*Entry{e})
		if err != nil {
			return nil, fmt.Errorf("nvdclean: crawling references: %w", err)
		}
		out.EstimatedDisclosure, out.LagDays = est[0].Estimated, est[0].LagDays
	}

	for _, vendor := range e.Vendors() {
		sugs := advisor.SuggestVendor(vendor, 3)
		// Exact canonical names need no advice.
		if len(sugs) > 0 && !(sugs[0].Reason == "exact" && sugs[0].Name == vendor) {
			out.VendorSuggestions[vendor] = sugs
		}
	}

	reg := cwe.NewRegistry()
	out.ExtractedCWEs = reg.Validate(cwe.Extract(e.AllDescriptionText()))

	if r.Engine != nil && e.V2 != nil && e.V3 == nil {
		// Score the entry as the severity stage does: its §4.4-corrected
		// CWE field through the engine's batch path.
		scored := *e
		if ec := predict.CorrectEntryCWEs(e, reg); ec.Changed {
			scored.CWEs = ec.CWEs
		}
		b, err := r.Engine.BackportAllN(&Snapshot{Entries: []*Entry{&scored}}, 1)
		if err != nil {
			return nil, fmt.Errorf("nvdclean: predicting severity: %w", err)
		}
		score := b.Scores[e.ID]
		out.PredictedV3 = score
		out.PredictedSeverity = cvss.SeverityV3(score)
		out.HasPrediction = true
	}
	return out, nil
}

// ModelKind re-exports the §4.3 algorithm identifiers for Options.
type ModelKind = predict.ModelKind

// The four Table 5 algorithms.
const (
	ModelLR  = predict.ModelLR
	ModelSVR = predict.ModelSVR
	ModelCNN = predict.ModelCNN
	ModelDNN = predict.ModelDNN
)
