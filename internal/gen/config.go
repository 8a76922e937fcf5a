// Package gen synthesizes NVD snapshots with the same schema, scale and
// — crucially — the same *defects* the paper measures: publication-date
// lag with a New-Year's-Eve backfill artifact (§4.1, §5.1), inconsistent
// vendor and product names with known alias ground truth (§4.2), CVSS v3
// labels present only on recent entries with a non-linear v2→v3
// relationship (§4.3), and missing/meta CWE types whose true value often
// hides in an evaluator description (§4.4).
//
// Every run is a pure function of the Config, so experiments reproduce
// exactly. The generator also emits a Truth record — the injected ground
// truth — which the test suite uses to score the cleaning pipeline, a
// luxury the paper's authors replaced with manual vetting.
package gen

import (
	"fmt"
	"time"
)

// Config controls the synthetic snapshot. The zero value is not valid;
// start from DefaultConfig or SmallConfig.
type Config struct {
	// Seed drives all randomness.
	Seed int64

	// NumCVEs is the total entry count. The paper's snapshot has 107.2K.
	NumCVEs int

	// NumVendors is the approximate number of *distinct true* vendors
	// before alias injection. The paper observes ≈19K names of which
	// ≈10% are impacted by inconsistency.
	NumVendors int

	// MaxProductsPerVendor caps the product catalog of the long-tail
	// vendors (head vendors get more via their weight).
	MaxProductsPerVendor int

	// FirstYear and LastYear bound the CVE identifier years.
	FirstYear, LastYear int

	// CaptureDate is the snapshot timestamp (paper: 2018-05-21).
	CaptureDate time.Time

	// V3StartYear is the first year whose entries all carry v3 labels;
	// earlier years have only sporadic retroactive v3 labels (§5.2:
	// "all CVEs since 2017 are assigned v3 scores ... before 2013, no
	// more than 35 CVEs each year").
	V3StartYear int

	// VendorAliasRate is the fraction of vendors that receive at least
	// one inconsistent alias (paper: ≈10% of names impacted).
	VendorAliasRate float64

	// ProductAliasRate is the fraction of products that receive an
	// inconsistent alias (paper: ≈6% of product names impacted).
	ProductAliasRate float64

	// UntypedOtherRate, UntypedNoInfoRate and UnassignedRate control the
	// CWE-field quality mix (paper: 24.5% NVD-CWE-Other, 7.1%
	// NVD-CWE-noinfo, 1.2% absent ≈ 31% untyped).
	UntypedOtherRate, UntypedNoInfoRate, UnassignedRate float64

	// EvaluatorHintRate is the probability that an untyped (Other) CVE's
	// evaluator comment names the true CWE (paper: §4.4 recovers 1,732
	// of 26,312 Other entries ≈ 6.6%).
	EvaluatorHintRate float64

	// TypedHintRate is the probability that an already-typed CVE also
	// cites a CWE in its description (the paper's 2,456 total corrections
	// include typed CVEs gaining additional labels).
	TypedHintRate float64
}

// DefaultConfig reproduces the paper's scale: 107.2K CVEs, ≈19K vendors,
// 1998–2018 with a small retroactive tail back to 1988.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		NumCVEs:              107200,
		NumVendors:           17000,
		MaxProductsPerVendor: 4,
		FirstYear:            1988,
		LastYear:             2018,
		CaptureDate:          time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC),
		V3StartYear:          2016,
		VendorAliasRate:      0.10,
		ProductAliasRate:     0.06,
		UntypedOtherRate:     0.245,
		UntypedNoInfoRate:    0.071,
		UnassignedRate:       0.012,
		EvaluatorHintRate:    0.066,
		TypedHintRate:        0.01,
	}
}

// SmallConfig is a proportionally scaled snapshot for tests and quick
// examples (3,000 CVEs, ~600 vendors). All rates match DefaultConfig so
// the shape of every experiment is preserved.
func SmallConfig() Config {
	c := DefaultConfig()
	c.NumCVEs = 3000
	c.NumVendors = 600
	return c
}

// TinyConfig is the minimum useful snapshot (400 CVEs) for unit tests
// that only need structural variety.
func TinyConfig() Config {
	c := DefaultConfig()
	c.NumCVEs = 400
	c.NumVendors = 120
	return c
}

// ScaleConfig returns the configuration a command's scale name selects:
// "tiny" (TinyConfig), "small" (SmallConfig) or "paper" (DefaultConfig).
func ScaleConfig(name string) (Config, error) {
	switch name {
	case "tiny":
		return TinyConfig(), nil
	case "small":
		return SmallConfig(), nil
	case "paper":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (want tiny, small or paper)", name)
}
