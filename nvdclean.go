// Package nvdclean is the public API of the NVD cleaning system, a
// reproduction of "Cleaning the NVD: Comprehensive Quality Assessment,
// Improvements, and Analyses" (Anwar et al., DSN 2021).
//
// The package ties together the four §4 correction tools — disclosure-
// date estimation by reference crawling, vendor/product name
// consolidation, CVSS v3 severity backporting, and CWE type correction
// — into one Clean call producing a rectified snapshot plus everything
// the §5 case studies need.
//
// A typical session:
//
//	snap, truth, _, _ := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
//	corpus := nvdclean.NewWebCorpus(snap, truth.Disclosure)
//	result, err := nvdclean.Clean(context.Background(), snap, nvdclean.Options{
//		Transport: corpus.Transport(),
//	})
//
// Real NVD JSON 1.1 feeds load with LoadFeed, in which case Transport
// should be http.DefaultTransport.
package nvdclean

import (
	"context"
	"io"
	"net/http"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/predict"
	"nvdclean/internal/webcorpus"
)

// Re-exported entry points for snapshot acquisition. The aliases keep
// example and downstream code inside the public package.
type (
	// Snapshot is a full NVD capture.
	Snapshot = cve.Snapshot
	// Entry is one CVE record.
	Entry = cve.Entry
	// Description is one free-form CVE description.
	Description = cve.Description
	// Reference is one CVE reference URL.
	Reference = cve.Reference
	// Truth is generator ground truth (synthetic snapshots only).
	Truth = gen.Truth
	// GenConfig scales a synthetic snapshot.
	GenConfig = gen.Config
	// WebCorpus simulates the reference-URL web.
	WebCorpus = webcorpus.Corpus
)

// PaperScale returns the generator configuration matching the paper's
// snapshot (107.2K CVEs, 1988–2018, captured 2018-05-21).
func PaperScale() GenConfig { return gen.DefaultConfig() }

// SmallScale returns a proportionally scaled configuration (3K CVEs)
// for quick runs.
func SmallScale() GenConfig { return gen.SmallConfig() }

// GenerateSnapshot synthesizes an NVD snapshot with injected,
// ground-truthed inconsistencies.
func GenerateSnapshot(cfg GenConfig) (*Snapshot, *Truth, error) {
	snap, truth, _, err := gen.Generate(cfg)
	return snap, truth, err
}

// NewWebCorpus builds the simulated advisory web for a snapshot; its
// Transport is what Clean crawls when no live web is available.
func NewWebCorpus(snap *Snapshot, disclosure map[string]time.Time) *WebCorpus {
	return webcorpus.New(snap, disclosure)
}

// LoadFeed parses an NVD JSON 1.1 data feed read from r into a
// snapshot in ID order, in one pass over its bytes (cve.ReadFeed).
// Anything but whitespace after the feed document is an error, and so
// is an object that gives one of its keys twice. An error reading r
// is returned wrapped, for errors.As.
func LoadFeed(r io.Reader) (*Snapshot, error) { return cve.ReadFeed(r) }

// WriteFeed serializes a snapshot in NVD JSON 1.1 format.
func WriteFeed(w io.Writer, s *Snapshot) error { return cve.WriteFeed(w, s) }

// Options tunes Clean. The zero value disables crawling (no transport)
// and uses fast model settings.
type Options struct {
	// Transport fetches reference pages for disclosure-date estimation,
	// from the 50 most popular reference domains as in the paper. nil
	// skips the date step. Use a WebCorpus transport for simulation or
	// http.DefaultTransport for the live web.
	Transport http.RoundTripper
	// Concurrency bounds the parallelism of every pipeline stage: the
	// reference crawl, name consolidation, model training, and score
	// backporting. Zero means GOMAXPROCS. Results are identical at any
	// setting — the pipeline's parallel paths use order-stable
	// reductions (see internal/parallel), so concurrency only changes
	// wall-clock time.
	Concurrency int
	// Models selects which §4.3 algorithms to train; nil trains all
	// four (LR, SVR, CNN, DNN).
	Models []predict.ModelKind
	// ModelConfig tunes training cost; the zero value uses the paper's
	// settings (100 epochs, paper-width networks).
	ModelConfig predict.ModelConfig
	// SkipSeverity disables the v3 backporting step.
	SkipSeverity bool
	// Seed drives dataset splits.
	Seed int64
}

// Result is the outcome of a Clean run.
type Result struct {
	// Original is the snapshot as given (untouched).
	Original *Snapshot
	// Cleaned is the rectified snapshot: consolidated names, corrected
	// CWE fields, and each backported score in its entry's PV3 (nil on
	// every other entry, whatever PV3 the input carried). Its entries
	// are distinct from Original's but share every slice and vector the
	// pipeline did not rewrite with them. A Result from CleanDelta also
	// shares with the previous Result's Cleaned every entry the delta
	// left as it was, pointer for pointer. So every snapshot of every
	// generation is read-only: edit a Clone of an entry instead.
	Cleaned *Snapshot

	// The maps and summaries below are read-only too: CleanDelta shares
	// VendorMap, ProductMap, VendorChanged, ProductChanged,
	// CWECorrection and Backport with the previous Result while the
	// delta changes none of their values.

	// EstimatedDisclosure maps CVE ID to the §4.1 estimated disclosure
	// date (empty when no Transport was given).
	EstimatedDisclosure map[string]time.Time
	// LagDays maps CVE ID to the measured publication lag.
	LagDays map[string]int
	// CrawlStats accounts for the reference crawl.
	CrawlStats crawler.Stats

	// VendorMap and ProductMap are the §4.2 consolidation mappings.
	VendorMap *naming.Map
	// VendorChanged marks CVEs whose vendor field was rewritten.
	VendorChanged map[string]bool
	// ProductMap is the product consolidation mapping.
	ProductMap *naming.ProductMap
	// ProductChanged marks CVEs whose product field was rewritten.
	ProductChanged map[string]bool

	// Engine is the trained §4.3 model zoo (nil when SkipSeverity).
	Engine *predict.Engine
	// Backport holds predicted v3 scores for v2-only CVEs (nil when
	// SkipSeverity), the values Cleaned's PV3 fields hold.
	Backport *predict.Backport

	// CWECorrection summarizes the §4.4 regex fix.
	CWECorrection *predict.CWECorrection

	// CleanedDelta is the delta from the previous Result's Cleaned to
	// this one's, equal to Diff(prev.Cleaned, Cleaned), on a Result
	// CleanDelta made from a previous one with a cleaned view; nil on one
	// from Clean or RestoreResult. It is built from the entries the run
	// derived and the IDs it removed alone, in O(delta), and holds
	// Cleaned's entries and the removed IDs, so it keeps no earlier
	// Result alive. Read-only, like every list of a Result.
	CleanedDelta *Delta

	// inc carries the per-entry artifacts and warm caches CleanDelta
	// needs to reprocess only a feed delta.
	inc *incState
}

// Clean runs the full pipeline on snap, returning the rectified
// snapshot and all intermediate artifacts. snap must be in ID order
// (Snapshot.CheckOrder), as LoadFeed and GenerateSnapshot return it;
// Snapshot.Sort orders a hand-built one. snap itself is not modified:
// Result.Cleaned copies each entry struct, all in one block, but shares
// the descriptions, references, CVSS vectors and every other slice or
// vector no stage rewrites with snap, so the caller must treat both as
// read-only.
//
// Internally Clean runs a fixed stage graph: the §4.1 reference crawl
// reads only the original snapshot while the §4.2 naming consolidation
// and §4.4 CWE correction replace disjoint fields of the cleaned
// entries, so all three run in parallel and join before the §4.3
// severity step (which needs the corrected entries). opts.Concurrency
// is split across the branches in flight, and every stage observes
// ctx. The returned Result also carries the state CleanDelta needs to
// reprocess a feed delta incrementally.
func Clean(ctx context.Context, snap *Snapshot, opts Options) (*Result, error) {
	return runClean(ctx, snap, opts, nil)
}
