// Package analysis implements the case studies of §5, each computable
// on both the original and the rectified snapshot so the "Impact of NVD
// Data Issues" comparisons reproduce: top disclosure/publication dates
// (Table 8), day-of-week distributions (Fig 2), severity distributions
// (Table 9, Fig 3), top weakness types by severity (Table 10), top
// vendors (Table 11), the severity of mislabeled-vendor CVEs
// (Table 12), lag by severity (Fig 4), and the sampled case studies of
// Table 16.
package analysis

import (
	"sort"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
)

// Scoring selects which severity labeling a breakdown uses.
type Scoring int

// The three labelings compared throughout §5.
const (
	// ScoreV2 uses the v2 base score present on every CVE.
	ScoreV2 Scoring = iota + 1
	// ScoreV3 uses the NVD-assigned v3 score where present.
	ScoreV3
	// ScorePV3 uses the v3 score where present, otherwise the
	// model-predicted ("pv3") score a cleaned entry carries in PV3.
	ScorePV3
)

// String names the scoring as the paper's figures do.
func (s Scoring) String() string {
	switch s {
	case ScoreV2:
		return "V2"
	case ScoreV3:
		return "V3"
	case ScorePV3:
		return "PV3"
	default:
		return "?"
	}
}

// SeverityOf returns an entry's severity under a scoring; ok is false
// when the entry has no label under that scoring (e.g. ScoreV3 on an
// old CVE).
func SeverityOf(e *cve.Entry, s Scoring) (cvss.Severity, bool) {
	switch s {
	case ScoreV2:
		return e.SeverityV2()
	case ScoreV3:
		return e.SeverityV3()
	case ScorePV3:
		return e.SeverityPV3()
	default:
		return 0, false
	}
}

// DateCount is one row of Table 8.
type DateCount struct {
	Date  time.Time
	Count int
	// YearShare is the date's share of that year's CVEs ("% of that
	// year's vulnerabilities reported on date").
	YearShare float64
}

// DayOfWeek returns the date's weekday, a column of Table 8.
func (d DateCount) DayOfWeek() time.Weekday { return d.Date.Weekday() }

// TopDates ranks calendar days by how many of the given per-CVE dates
// fall on them (dates are truncated to UTC days).
func TopDates(dates []time.Time, n int) []DateCount {
	dayCount := make(map[time.Time]int)
	yearCount := make(map[int]int)
	for _, d := range dates {
		day := time.Date(d.Year(), d.Month(), d.Day(), 0, 0, 0, 0, time.UTC)
		dayCount[day]++
		yearCount[day.Year()]++
	}
	out := make([]DateCount, 0, len(dayCount))
	for day, c := range dayCount {
		out = append(out, DateCount{
			Date:      day,
			Count:     c,
			YearShare: float64(c) / float64(yearCount[day.Year()]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Date.Before(out[j].Date)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// PublishedDates extracts every entry's NVD publication date.
func PublishedDates(snap *cve.Snapshot) []time.Time {
	out := make([]time.Time, len(snap.Entries))
	for i, e := range snap.Entries {
		out[i] = e.Published
	}
	return out
}

// DayOfWeekCounts buckets dates by weekday (Fig 2's series).
func DayOfWeekCounts(dates []time.Time) [7]int {
	var out [7]int
	for _, d := range dates {
		out[int(d.Weekday())]++
	}
	return out
}

// SeverityDist is a severity histogram normalized to fractions.
type SeverityDist map[cvss.Severity]float64

// SeverityDistribution computes the Table 9 distribution of CVE
// severities under a scoring, over the entries that have a label.
func SeverityDistribution(snap *cve.Snapshot, s Scoring) SeverityDist {
	counts := make(map[cvss.Severity]int)
	total := 0
	for _, e := range snap.Entries {
		sev, ok := SeverityOf(e, s)
		if !ok {
			continue
		}
		counts[sev]++
		total++
	}
	dist := make(SeverityDist, len(counts))
	if total == 0 {
		return dist
	}
	for sev, c := range counts {
		dist[sev] = float64(c) / float64(total)
	}
	return dist
}

// YearlySeverity computes Fig 3: for each CVE-identifier year, the
// severity distribution under each scoring.
func YearlySeverity(snap *cve.Snapshot) map[int]map[Scoring]SeverityDist {
	type key struct {
		year int
		s    Scoring
	}
	counts := make(map[key]map[cvss.Severity]int)
	totals := make(map[key]int)
	for _, e := range snap.Entries {
		year := e.Year()
		if year == 0 {
			continue
		}
		for _, s := range []Scoring{ScoreV2, ScoreV3, ScorePV3} {
			sev, ok := SeverityOf(e, s)
			if !ok {
				continue
			}
			k := key{year, s}
			if counts[k] == nil {
				counts[k] = make(map[cvss.Severity]int)
			}
			counts[k][sev]++
			totals[k]++
		}
	}
	out := make(map[int]map[Scoring]SeverityDist)
	for k, c := range counts {
		perYear := out[k.year]
		if perYear == nil {
			perYear = make(map[Scoring]SeverityDist)
			out[k.year] = perYear
		}
		dist := make(SeverityDist, len(c))
		for sev, n := range c {
			dist[sev] = float64(n) / float64(totals[k])
		}
		perYear[k.s] = dist
	}
	return out
}

// AvgLagBySeverity computes Fig 4: the mean lag (days between estimated
// disclosure and NVD publication) per severity band under a scoring.
func AvgLagBySeverity(snap *cve.Snapshot, lagDays map[string]int, s Scoring) map[cvss.Severity]float64 {
	sum := make(map[cvss.Severity]float64)
	n := make(map[cvss.Severity]int)
	for _, e := range snap.Entries {
		lag, ok := lagDays[e.ID]
		if !ok {
			continue
		}
		sev, ok := SeverityOf(e, s)
		if !ok {
			continue
		}
		sum[sev] += float64(lag)
		n[sev]++
	}
	out := make(map[cvss.Severity]float64, len(sum))
	for sev, total := range sum {
		out[sev] = total / float64(n[sev])
	}
	return out
}
