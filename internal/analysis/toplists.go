package analysis

import (
	"math/rand"
	"sort"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// TypeCount is one row of Table 10: a weakness type with its number of
// CVEs at a severity band.
type TypeCount struct {
	ID    cwe.ID
	Count int
}

// TopTypes ranks CWE types by the number of CVEs whose severity under
// scoring s equals band (Table 10 uses High and Critical).
func TopTypes(snap *cve.Snapshot, s Scoring, band cvss.Severity, n int) []TypeCount {
	counts := make(map[cwe.ID]int)
	for _, e := range snap.Entries {
		sev, ok := SeverityOf(e, s)
		if !ok || sev != band {
			continue
		}
		seen := make(map[cwe.ID]struct{}, len(e.CWEs))
		for _, id := range e.CWEs {
			if id.IsMeta() {
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			counts[id]++
		}
	}
	out := make([]TypeCount, 0, len(counts))
	for id, c := range counts {
		out = append(out, TypeCount{ID: id, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// VendorCount is one row of Table 11.
type VendorCount struct {
	Vendor string
	Count  int
	// Share is the count as a fraction of all CVEs (or products).
	Share float64
}

// TopVendorsByCVE ranks vendors by associated CVEs (left half of
// Table 11).
func TopVendorsByCVE(snap *cve.Snapshot, n int) []VendorCount {
	counts := snap.VendorCVECount()
	return rank(counts, n, float64(snap.Len()))
}

// TopVendorsByProducts ranks vendors by the number of distinct affected
// products (right half of Table 11).
func TopVendorsByProducts(snap *cve.Snapshot, n int) []VendorCount {
	products := snap.VendorProducts()
	counts := make(map[string]int, len(products))
	total := 0
	for v, set := range products {
		counts[v] = len(set)
		total += len(set)
	}
	return rank(counts, n, float64(total))
}

func rank(counts map[string]int, n int, total float64) []VendorCount {
	out := make([]VendorCount, 0, len(counts))
	for v, c := range counts {
		share := 0.0
		if total > 0 {
			share = float64(c) / total
		}
		out = append(out, VendorCount{Vendor: v, Count: c, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Vendor < out[j].Vendor
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// MislabeledSeverity is Table 12: the severity breakdown of CVEs whose
// vendor or product name was corrected.
type MislabeledSeverity struct {
	// Vendor[sev] counts CVEs with a corrected vendor at severity sev;
	// Product likewise.
	Vendor, Product map[cvss.Severity]int
}

// MislabeledBySeverity classifies every CVE touched by the vendor or
// product corrections by its severity under scoring s. vendorChanged
// and productChanged report whether a given entry was rewritten (the
// pipeline records these sets while applying maps).
func MislabeledBySeverity(snap *cve.Snapshot, vendorChanged, productChanged map[string]bool, s Scoring) MislabeledSeverity {
	out := MislabeledSeverity{
		Vendor:  make(map[cvss.Severity]int),
		Product: make(map[cvss.Severity]int),
	}
	for _, e := range snap.Entries {
		sev, ok := SeverityOf(e, s)
		if !ok {
			continue
		}
		if vendorChanged[e.ID] {
			out.Vendor[sev]++
		}
		if productChanged[e.ID] {
			out.Product[sev]++
		}
	}
	return out
}

// CaseStudy is one row of Table 16: a sampled CVE whose vendor was
// corrected.
type CaseStudy struct {
	ID string
	// Vendor is the (inconsistent) vendor name as originally recorded.
	Vendor string
	// Severity is the v2 band.
	Severity cvss.Severity
	// Description is the primary free-form text.
	Description string
}

// SampleCaseStudies draws n deterministic samples from the CVEs whose
// vendor was corrected, preferring high-severity ones as the paper's
// Table 16 does.
func SampleCaseStudies(orig *cve.Snapshot, vendorChanged map[string]bool, n int, seed int64) []CaseStudy {
	var pool []CaseStudy
	for _, e := range orig.Entries {
		if !vendorChanged[e.ID] {
			continue
		}
		sev, ok := e.SeverityV2()
		if !ok {
			continue
		}
		vendor := ""
		if len(e.CPEs) > 0 {
			vendor = e.CPEs[0].Vendor
		}
		pool = append(pool, CaseStudy{
			ID: e.ID, Vendor: vendor, Severity: sev, Description: e.Description(),
		})
	}
	// Prefer High severity (the paper's sample is 9 High + 1 Medium),
	// then shuffle deterministically within bands.
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Severity > pool[j].Severity })
	rng := rand.New(rand.NewSource(seed))
	// Shuffle inside the leading high-severity run for variety.
	end := 0
	for end < len(pool) && pool[end].Severity == cvss.SeverityHigh {
		end++
	}
	rng.Shuffle(end, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > 0 && len(pool) > n {
		pool = pool[:n]
	}
	return pool
}
