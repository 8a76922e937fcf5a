package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
	"nvdclean/internal/parallel"
)

// Stats accounts for a crawl, mirroring the coverage discussion of §4.1
// and §6.
type Stats struct {
	// URLs is the number of reference URLs considered.
	URLs int
	// Skipped counts URLs outside the top-K domain set.
	Skipped int
	// DeadDomain counts fetches that failed at the connection level.
	DeadDomain int
	// Fetched counts successful page fetches.
	Fetched int
	// Extracted counts pages yielding a date.
	Extracted int
	// HTTPErrors counts non-200 responses.
	HTTPErrors int
}

// add merges per-URL outcomes.
func (s *Stats) add(o Stats) {
	s.URLs += o.URLs
	s.Skipped += o.Skipped
	s.DeadDomain += o.DeadDomain
	s.Fetched += o.Fetched
	s.Extracted += o.Extracted
	s.HTTPErrors += o.HTTPErrors
}

// Config controls a Crawler.
type Config struct {
	// Transport fetches pages. Required: use webcorpus.Transport() for
	// the simulated web or http.DefaultTransport for the real one.
	Transport http.RoundTripper
	// TopK restricts crawling to the TopK most popular domains
	// (paper: 50). Zero means 50.
	TopK int
	// Concurrency is the number of parallel fetch workers. Zero means
	// GOMAXPROCS, the pipeline-wide default.
	Concurrency int
	// Timeout bounds each fetch. Zero means 10s.
	Timeout time.Duration
	// MaxBodyBytes caps each response read. Zero means 1 MiB.
	MaxBodyBytes int64
}

// Crawler estimates CVE disclosure dates from reference pages.
type Crawler struct {
	cfg        Config
	client     *http.Client
	extractors map[string]Extractor // host -> extractor, top-K only

	// memo caches per-URL fetch outcomes: the same advisory URL is
	// referenced by many CVEs, and its page yields the same date every
	// time. Stats still count every occurrence, so aggregate accounting
	// matches an uncached crawl exactly.
	memo sync.Map // url -> fetchOutcome
}

// fetchOutcome is one URL's memoized crawl result.
type fetchOutcome struct {
	date time.Time
	st   Stats
}

// New validates cfg and builds the per-domain extractor set.
func New(cfg Config) (*Crawler, error) {
	if cfg.Transport == nil {
		return nil, errors.New("crawler: Transport is required")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 50
	}
	cfg.Concurrency = parallel.Workers(cfg.Concurrency)
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	// Per-fetch timeouts come from a context deadline in fetchDate
	// rather than http.Client.Timeout: the client's timeout machinery
	// arms three cancel paths per request, which dominates the cost of
	// fast in-process fetches.
	c := &Crawler{
		cfg:        cfg,
		client:     &http.Client{Transport: cfg.Transport},
		extractors: make(map[string]Extractor),
	}
	for i, d := range gen.Domains() {
		if i >= cfg.TopK {
			break
		}
		if ex := ExtractorFor(d.Format); ex != nil {
			c.extractors[d.Host] = ex
		}
	}
	return c, nil
}

// NumDomains returns the number of domains the crawler can parse.
func (c *Crawler) NumDomains() int { return len(c.extractors) }

// fetchDate retrieves one reference page and extracts its date.
func (c *Crawler) fetchDate(ctx context.Context, rawURL string) (time.Time, Stats) {
	var st Stats
	st.URLs = 1
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		st.Skipped = 1
		return time.Time{}, st
	}
	ex, ok := c.extractors[u.Hostname()]
	if !ok {
		st.Skipped = 1
		return time.Time{}, st
	}
	if c.cfg.Timeout > 0 {
		fctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
		ctx = fctx
	}
	// The URL is already parsed; building the request directly avoids
	// a second url.Parse per fetch.
	req := (&http.Request{
		Method: http.MethodGet,
		URL:    u,
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header),
		Host:   u.Host,
	}).WithContext(ctx)
	resp, err := c.client.Do(req)
	if err != nil {
		st.DeadDomain = 1
		return time.Time{}, st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.HTTPErrors = 1
		return time.Time{}, st
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		st.HTTPErrors = 1
		return time.Time{}, st
	}
	st.Fetched = 1
	date, found := ex(body)
	if !found {
		return time.Time{}, st
	}
	st.Extracted = 1
	return date, st
}

// fetchDateCached is fetchDate memoized per URL. Only deterministic
// outcomes are cached — successful fetches and out-of-scope skips; a
// transient failure (dead connection, HTTP error, timeout) is retried
// on the URL's next occurrence rather than poisoning the whole crawl.
// Cached outcomes carry the single-occurrence stats, which are
// re-counted per reference, so aggregate stats match an uncached
// crawl.
func (c *Crawler) fetchDateCached(ctx context.Context, rawURL string) (time.Time, Stats) {
	if v, ok := c.memo.Load(rawURL); ok {
		o := v.(fetchOutcome)
		return o.date, o.st
	}
	d, st := c.fetchDate(ctx, rawURL)
	if (st.Fetched == 1 || st.Skipped == 1) && ctx.Err() == nil {
		c.memo.Store(rawURL, fetchOutcome{date: d, st: st})
	}
	return d, st
}

// Estimate computes the estimated disclosure date for one entry: the
// minimum of the dates extracted from its reference URLs and the NVD
// publication date (§4.1).
func (c *Crawler) Estimate(ctx context.Context, e *cve.Entry) (time.Time, Stats) {
	best := e.Published
	var st Stats
	for _, r := range e.References {
		d, s := c.fetchDateCached(ctx, r.URL)
		st.add(s)
		if !d.IsZero() && d.Before(best) {
			best = d
		}
	}
	return best, st
}

// Result is one CVE's estimated disclosure date.
type Result struct {
	ID        string
	Estimated time.Time
	// LagDays is the number of days the NVD publication trails the
	// estimate (the paper's "lag time").
	LagDays int
}

// EstimateEntries crawls the given entries on a bounded worker pool of
// the configured concurrency and returns one Result and one Stats per
// entry, index-aligned with the input. Each entry writes only its own
// slots, so the outcome is identical at any concurrency. Per-entry
// stats are what make incremental cleaning possible: an entry's crawl
// outcome is a pure function of the entry (the memo only skips
// repeated fetches, it never changes accounting), so unchanged entries
// of a feed delta can reuse their recorded stats verbatim.
func (c *Crawler) EstimateEntries(ctx context.Context, entries []*cve.Entry) ([]Result, []Stats, error) {
	results := make([]Result, len(entries))
	perEntry := make([]Stats, len(entries))
	err := parallel.ForErr(c.cfg.Concurrency, len(entries), func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("crawler: %w", err)
		}
		e := entries[i]
		est, st := c.Estimate(ctx, e)
		lag := int(e.Published.Sub(est).Hours() / 24)
		if lag < 0 {
			lag = 0
		}
		results[i] = Result{ID: e.ID, Estimated: est, LagDays: lag}
		perEntry[i] = st
		return nil
	})
	if err != nil {
		return nil, perEntry, err
	}
	return results, perEntry, nil
}

// FoldStats sums per-entry stats into the aggregate. The counters are
// integers, so the sum is the same in any order.
func FoldStats(perEntry []Stats) Stats {
	var s Stats
	for _, o := range perEntry {
		s.add(o)
	}
	return s
}

// EstimateAll crawls every entry of the snapshot and returns per-CVE
// results (in snapshot order) plus aggregate stats.
func (c *Crawler) EstimateAll(ctx context.Context, snap *cve.Snapshot) ([]Result, Stats, error) {
	results, perEntry, err := c.EstimateEntries(ctx, snap.Entries)
	agg := FoldStats(perEntry)
	if err != nil {
		return nil, agg, err
	}
	return results, agg, nil
}

// Coverage returns the fraction of considered URLs whose domain was in
// the crawlable top-K set.
func (s Stats) Coverage() float64 {
	if s.URLs == 0 {
		return 0
	}
	return float64(s.URLs-s.Skipped) / float64(s.URLs)
}

// LagTimes extracts the lag-day series from results, the input to the
// Fig 1 CDF.
func LagTimes(results []Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = float64(r.LagDays)
	}
	return out
}

// EstimatedDates converts results to a map for analysis code.
func EstimatedDates(results []Result) map[string]time.Time {
	m := make(map[string]time.Time, len(results))
	for _, r := range results {
		m[r.ID] = r.Estimated
	}
	return m
}

// SortByLag sorts a copy of results by descending lag.
func SortByLag(results []Result) []Result {
	out := append([]Result(nil), results...)
	sort.Slice(out, func(i, j int) bool { return out[i].LagDays > out[j].LagDays })
	return out
}
