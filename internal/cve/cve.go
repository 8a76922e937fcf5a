// Package cve defines the vulnerability entry model of the NVD and a
// codec for the NVD JSON 1.1 data-feed format. An Entry carries exactly
// the fields the paper studies (§3): the CVE identifier, publication
// date, CWE types, CVSS v2/v3 base metrics, the affected CPE names, the
// free-form descriptions, and the reference URLs.
package cve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// Description is one free-form description of a CVE. The typical entry
// explains the security concern; a second common one is the evaluator's
// comment, which is where stray CWE IDs appear (§4.4).
type Description struct {
	Source string // e.g. "cve@mitre.org" or "evaluator"
	Value  string
}

// Reference is an external URL attached to a CVE (advisory, bug report,
// vulnerability database page).
type Reference struct {
	URL  string
	Tags []string
}

// Entry is one CVE record.
type Entry struct {
	// ID is the CVE identifier, e.g. "CVE-2011-0700".
	ID string
	// Published is when the entry was added to the NVD — not necessarily
	// when the vulnerability became public (§4.1).
	Published time.Time
	// LastModified is the NVD modification timestamp.
	LastModified time.Time
	// Descriptions holds the free-form texts.
	Descriptions []Description
	// CWEs is the set of weakness types in the CWE field.
	CWEs []cwe.ID
	// V2 is the CVSS v2 base vector; nil when absent.
	V2 *cvss.VectorV2
	// V3 is the CVSS v3 base vector; nil when absent (two thirds of the
	// paper's snapshot).
	V3 *cvss.VectorV3
	// PV3 is the backported (predicted) CVSS v3 base score for v2-only
	// entries — the paper's "pv3" scoring. It is an extension field,
	// carried through the feed codec under a non-NVD key; nil when
	// absent. In a cleaned view it is the one home of the score: the
	// pipeline's severity stage sets it (ApplyBackport) on each entry
	// it scored and leaves it nil on every other, and SeverityPV3 reads
	// it.
	PV3 *float64
	// CPEs lists the affected vendor/product names.
	CPEs []cpe.Name
	// References lists the attached URLs.
	References []Reference
}

// Year returns the year component of the CVE identifier, which the
// paper's per-year analyses group by. It returns 0 for malformed IDs.
func (e *Entry) Year() int {
	y, _, err := SplitID(e.ID)
	if err != nil {
		return 0
	}
	return y
}

// SplitID parses "CVE-2011-0700" into (2011, 700).
func SplitID(id string) (year, seq int, err error) {
	rest, ok := strings.CutPrefix(id, "CVE-")
	if !ok {
		return 0, 0, fmt.Errorf("cve: malformed id %q", id)
	}
	ys, ss, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, fmt.Errorf("cve: malformed id %q", id)
	}
	year, err = strconv.Atoi(ys)
	if err != nil || year < 1988 || year > 2100 {
		return 0, 0, fmt.Errorf("cve: bad year in id %q", id)
	}
	seq, err = strconv.Atoi(ss)
	if err != nil || seq < 0 {
		return 0, 0, fmt.Errorf("cve: bad sequence in id %q", id)
	}
	return year, seq, nil
}

// FormatID builds a CVE identifier, zero-padding the sequence number to
// four digits as MITRE does.
func FormatID(year, seq int) string {
	return fmt.Sprintf("CVE-%d-%04d", year, seq)
}

// Description returns the primary (first) description text, or "".
func (e *Entry) Description() string {
	if len(e.Descriptions) == 0 {
		return ""
	}
	return e.Descriptions[0].Value
}

// AllDescriptionText concatenates every description value, the input to
// the §4.4 CWE extraction.
func (e *Entry) AllDescriptionText() string {
	switch len(e.Descriptions) {
	case 0:
		return ""
	case 1:
		return e.Descriptions[0].Value
	}
	parts := make([]string, len(e.Descriptions))
	for i, d := range e.Descriptions {
		parts[i] = d.Value
	}
	return strings.Join(parts, "\n")
}

// HasV3 reports whether the entry carries a CVSS v3 vector.
func (e *Entry) HasV3() bool { return e.V3 != nil }

// SeverityV2 returns the v2 severity band, or false when no v2 vector is
// present.
func (e *Entry) SeverityV2() (cvss.Severity, bool) {
	if e.V2 == nil {
		return 0, false
	}
	return e.V2.Severity(), true
}

// SeverityV3 returns the v3 severity band, or false when no v3 vector is
// present.
func (e *Entry) SeverityV3() (cvss.Severity, bool) {
	if e.V3 == nil {
		return 0, false
	}
	return e.V3.Severity(), true
}

// SeverityPV3 returns the paper's "pv3" severity band: the v3 band when
// a v3 vector is present, otherwise the band of the backported PV3
// score, or false when the entry has neither.
func (e *Entry) SeverityPV3() (cvss.Severity, bool) {
	if e.V3 != nil {
		return e.V3.Severity(), true
	}
	if e.PV3 != nil {
		return cvss.SeverityV3(*e.PV3), true
	}
	return 0, false
}

// Vendors returns the distinct vendor names in the entry's CPE list, in
// first-appearance order.
func (e *Entry) Vendors() []string {
	seen := make(map[string]struct{}, len(e.CPEs))
	var out []string
	for _, n := range e.CPEs {
		if _, dup := seen[n.Vendor]; dup {
			continue
		}
		seen[n.Vendor] = struct{}{}
		out = append(out, n.Vendor)
	}
	return out
}

// HasCWE reports whether id appears in the entry's CWE field.
func (e *Entry) HasCWE(id cwe.ID) bool {
	for _, c := range e.CWEs {
		if c == id {
			return true
		}
	}
	return false
}

// Typed reports whether the entry has at least one concrete (non-meta)
// CWE type. The paper finds ≈31% of CVEs untyped (§4.4).
func (e *Entry) Typed() bool {
	for _, c := range e.CWEs {
		if !c.IsMeta() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the entry, which the caller may then
// edit freely (a feed update built from a served entry, for instance).
func (e *Entry) Clone() *Entry {
	c := *e
	c.Descriptions = append([]Description(nil), e.Descriptions...)
	c.CWEs = append([]cwe.ID(nil), e.CWEs...)
	c.CPEs = append([]cpe.Name(nil), e.CPEs...)
	c.References = make([]Reference, len(e.References))
	for i, r := range e.References {
		c.References[i] = Reference{URL: r.URL, Tags: append([]string(nil), r.Tags...)}
	}
	if e.V2 != nil {
		v := *e.V2
		c.V2 = &v
	}
	if e.V3 != nil {
		v := *e.V3
		c.V3 = &v
	}
	if e.PV3 != nil {
		v := *e.PV3
		c.PV3 = &v
	}
	return &c
}

// Snapshot is a full NVD capture: the paper's unit of analysis.
type Snapshot struct {
	// CapturedAt records when the snapshot was taken (the paper's was
	// May 21, 2018).
	CapturedAt time.Time
	// Entries holds every CVE once, in ID order (CheckOrder), which
	// ReadFeed and Sort establish and ByID, Diff and ApplyDelta rely on.
	Entries []*Entry
}

// Sort orders entries by (year, sequence).
func (s *Snapshot) Sort() { sortEntries(s.Entries) }

// CheckOrder reports the first entry that breaks the snapshot's ID
// order: a malformed ID, or one not strictly after its predecessor.
// Two spellings of one (year, sequence), such as CVE-2017-1 and
// CVE-2017-0001, count as a repeat.
func (s *Snapshot) CheckOrder() error {
	py, pq := 0, -1
	for i, e := range s.Entries {
		y, q, err := SplitID(e.ID)
		switch {
		case err != nil:
			return err
		case keyLess(py, pq, y, q):
		case s.Entries[i-1].ID == e.ID:
			return fmt.Errorf("cve: %s appears more than once", e.ID)
		case y == py && q == pq:
			return fmt.Errorf("cve: %s and %s name one CVE", s.Entries[i-1].ID, e.ID)
		default:
			return fmt.Errorf("cve: %s is out of ID order after %s", e.ID, s.Entries[i-1].ID)
		}
		py, pq = y, q
	}
	return nil
}

// Len returns the number of entries.
func (s *Snapshot) Len() int { return len(s.Entries) }

// ByID returns the entry with the given CVE identifier, or nil. It is
// a binary search, so the snapshot must be in ID order.
func (s *Snapshot) ByID(id string) *Entry {
	y, q, _ := SplitID(id) // a malformed id matches no entry
	es := s.Entries
	i := sort.Search(len(es), func(i int) bool {
		ey, eq, _ := SplitID(es[i].ID)
		return !keyLess(ey, eq, y, q)
	})
	if i < len(es) && es[i].ID == id {
		return es[i]
	}
	return nil
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	out := &Snapshot{CapturedAt: s.CapturedAt, Entries: make([]*Entry, len(s.Entries))}
	for i, e := range s.Entries {
		out.Entries[i] = e.Clone()
	}
	return out
}

// VendorCVECount returns, for every vendor name, the number of CVEs
// listing it. A CVE with several products of one vendor counts once.
func (s *Snapshot) VendorCVECount() map[string]int {
	// last is one past the index of the entry a vendor was last
	// counted for, so a vendor repeated within one entry counts once
	// without a per-entry set.
	type tally struct{ count, last int }
	tallies := make(map[string]tally)
	for i, e := range s.Entries {
		for _, n := range e.CPEs {
			if t := tallies[n.Vendor]; t.last != i+1 {
				tallies[n.Vendor] = tally{t.count + 1, i + 1}
			}
		}
	}
	counts := make(map[string]int, len(tallies))
	for v, t := range tallies {
		counts[v] = t.count
	}
	return counts
}

// VendorProducts returns the distinct product set per vendor.
func (s *Snapshot) VendorProducts() map[string]map[string]struct{} {
	out := make(map[string]map[string]struct{})
	for _, e := range s.Entries {
		for _, n := range e.CPEs {
			set := out[n.Vendor]
			if set == nil {
				set = make(map[string]struct{})
				out[n.Vendor] = set
			}
			set[n.Product] = struct{}{}
		}
	}
	return out
}

// DistinctVendors returns the number of distinct vendor names.
func (s *Snapshot) DistinctVendors() int {
	seen := make(map[string]struct{})
	for _, e := range s.Entries {
		for _, n := range e.CPEs {
			seen[n.Vendor] = struct{}{}
		}
	}
	return len(seen)
}

// DistinctProducts returns the number of distinct (vendor, product)
// pairs' product names, counting a product name once per vendor as the
// paper's Table 3 does.
func (s *Snapshot) DistinctProducts() int {
	seen := make(map[[2]string]struct{})
	for _, e := range s.Entries {
		for _, n := range e.CPEs {
			seen[[2]string{n.Vendor, n.Product}] = struct{}{}
		}
	}
	return len(seen)
}
