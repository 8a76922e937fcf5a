package cvss

import (
	"math"
	"testing"
)

// Anchor scores verified against the FIRST CVSS v2 calculator and
// well-known CVE scores.
func TestV2BaseScoreAnchors(t *testing.T) {
	tests := []struct {
		vector string
		want   float64
	}{
		{"AV:N/AC:L/Au:N/C:C/I:C/A:C", 10.0},
		{"AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5},
		{"AV:N/AC:L/Au:N/C:P/I:N/A:N", 5.0}, // Heartbleed (CVE-2014-0160)
		{"AV:N/AC:M/Au:N/C:P/I:P/A:P", 6.8},
		{"AV:L/AC:L/Au:N/C:C/I:C/A:C", 7.2},
		{"AV:N/AC:L/Au:N/C:N/I:N/A:N", 0.0},
		{"AV:L/AC:H/Au:M/C:N/I:N/A:P", 0.8},
		{"AV:N/AC:L/Au:N/C:N/I:N/A:P", 5.0},
		{"AV:A/AC:L/Au:N/C:P/I:P/A:P", 5.8},
	}
	for _, tt := range tests {
		t.Run(tt.vector, func(t *testing.T) {
			v, err := ParseV2(tt.vector)
			if err != nil {
				t.Fatalf("ParseV2: %v", err)
			}
			if got := v.BaseScore(); got != tt.want {
				t.Errorf("BaseScore() = %.1f, want %.1f", got, tt.want)
			}
		})
	}
}

// Anchor scores verified against the FIRST CVSS v3.0 calculator.
func TestV3BaseScoreAnchors(t *testing.T) {
	tests := []struct {
		vector string
		want   float64
	}{
		{"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.8},
		{"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H", 10.0},
		{"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N", 7.5},
		{"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:N", 6.5},
		{"CVSS:3.0/AV:N/AC:L/PR:L/UI:N/S:C/C:L/I:L/A:N", 6.4},
		{"CVSS:3.0/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", 1.6},
		{"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", 0.0},
	}
	for _, tt := range tests {
		t.Run(tt.vector, func(t *testing.T) {
			v, err := ParseV3(tt.vector)
			if err != nil {
				t.Fatalf("ParseV3: %v", err)
			}
			if got := v.BaseScore(); got != tt.want {
				t.Errorf("BaseScore() = %.1f, want %.1f", got, tt.want)
			}
		})
	}
}

func TestSeverityThresholds(t *testing.T) {
	// Table 1 of the paper.
	v2 := []struct {
		score float64
		want  Severity
	}{
		{0.0, SeverityLow}, {3.9, SeverityLow},
		{4.0, SeverityMedium}, {6.9, SeverityMedium},
		{7.0, SeverityHigh}, {10.0, SeverityHigh},
	}
	for _, tt := range v2 {
		if got := SeverityV2(tt.score); got != tt.want {
			t.Errorf("SeverityV2(%.1f) = %v, want %v", tt.score, got, tt.want)
		}
	}
	v3 := []struct {
		score float64
		want  Severity
	}{
		{0.0, SeverityNone},
		{0.1, SeverityLow}, {3.9, SeverityLow},
		{4.0, SeverityMedium}, {6.9, SeverityMedium},
		{7.0, SeverityHigh}, {8.9, SeverityHigh},
		{9.0, SeverityCritical}, {10.0, SeverityCritical},
	}
	for _, tt := range v3 {
		if got := SeverityV3(tt.score); got != tt.want {
			t.Errorf("SeverityV3(%.1f) = %v, want %v", tt.score, got, tt.want)
		}
	}
}

func TestSeverityStringsAndAbbrevs(t *testing.T) {
	tests := []struct {
		s      Severity
		str    string
		abbrev string
	}{
		{SeverityNone, "None", "-"},
		{SeverityLow, "Low", "L"},
		{SeverityMedium, "Medium", "M"},
		{SeverityHigh, "High", "H"},
		{SeverityCritical, "Critical", "C"},
		{Severity(0), "Unknown", "-"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.str {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.str)
		}
		if got := tt.s.Abbrev(); got != tt.abbrev {
			t.Errorf("%d.Abbrev() = %q, want %q", tt.s, got, tt.abbrev)
		}
	}
}

func TestParseSeverity(t *testing.T) {
	for _, s := range []Severity{SeverityNone, SeverityLow, SeverityMedium, SeverityHigh, SeverityCritical} {
		got, ok := ParseSeverity(s.String())
		if !ok || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := ParseSeverity("bogus"); ok {
		t.Error("ParseSeverity(bogus) should fail")
	}
}

func TestV2RoundTripAll(t *testing.T) {
	for _, v := range AllV2Vectors() {
		parsed, err := ParseV2(v.String())
		if err != nil {
			t.Fatalf("ParseV2(%q): %v", v.String(), err)
		}
		if parsed != v {
			t.Fatalf("round trip mismatch: %v -> %q -> %v", v, v.String(), parsed)
		}
	}
}

func TestV3RoundTripAll(t *testing.T) {
	for _, v := range AllV3Vectors() {
		parsed, err := ParseV3(v.String())
		if err != nil {
			t.Fatalf("ParseV3(%q): %v", v.String(), err)
		}
		if parsed != v {
			t.Fatalf("round trip mismatch: %v -> %q -> %v", v, v.String(), parsed)
		}
		if got, want := string(v.Append([]byte("x"))), "x"+v.String(); got != want {
			t.Fatalf("Append = %q, want %q", got, want)
		}
	}
}

var stringSink string

// TestVectorStringAllocs: String formats through Append into a stack
// buffer, so the returned string is its one allocation.
func TestVectorStringAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	v2, v3 := AllV2Vectors()[0], AllV3Vectors()[0]
	for name, f := range map[string]func(){
		"VectorV2": func() { stringSink = v2.String() },
		"VectorV3": func() { stringSink = v3.String() },
	} {
		if n := testing.AllocsPerRun(100, f); n > 1 {
			t.Errorf("%s.String allocates %.0f times, want at most 1", name, n)
		}
	}
}

func TestV2ScoreRange(t *testing.T) {
	for _, v := range AllV2Vectors() {
		s := v.BaseScore()
		if s < 0 || s > 10 {
			t.Fatalf("score %.2f out of range for %s", s, v)
		}
		if math.Round(s*10) != s*10 {
			t.Fatalf("score %v not rounded to one decimal for %s", s, v)
		}
	}
}

func TestV3ScoreRange(t *testing.T) {
	for _, v := range AllV3Vectors() {
		s := v.BaseScore()
		if s < 0 || s > 10 {
			t.Fatalf("score %.2f out of range for %s", s, v)
		}
	}
}

func TestV2ZeroImpactIsZeroScore(t *testing.T) {
	for _, v := range AllV2Vectors() {
		if v.Confidentiality == ImpactNone && v.Integrity == ImpactNone && v.Availability == ImpactNone {
			if s := v.BaseScore(); s != 0 {
				t.Fatalf("no-impact vector %s scored %.1f, want 0", v, s)
			}
		}
	}
}

func TestV3ZeroImpactIsNone(t *testing.T) {
	for _, v := range AllV3Vectors() {
		if v.Confidentiality == ImpactV3None && v.Integrity == ImpactV3None && v.Availability == ImpactV3None {
			if s := v.BaseScore(); s != 0 {
				t.Fatalf("no-impact vector %s scored %.1f, want 0", v, s)
			}
			if sev := v.Severity(); sev != SeverityNone {
				t.Fatalf("no-impact vector %s severity %v, want None", v, sev)
			}
		}
	}
}

// Raising any single impact metric must never lower the v2 base score.
func TestV2ImpactMonotonicity(t *testing.T) {
	for _, v := range AllV2Vectors() {
		base := v.BaseScore()
		if v.Confidentiality < ImpactComplete {
			up := v
			up.Confidentiality++
			if up.BaseScore() < base {
				t.Fatalf("raising C lowered score: %s %.1f -> %s %.1f", v, base, up, up.BaseScore())
			}
		}
		if v.Integrity < ImpactComplete {
			up := v
			up.Integrity++
			if up.BaseScore() < base {
				t.Fatalf("raising I lowered score: %s", v)
			}
		}
		if v.Availability < ImpactComplete {
			up := v
			up.Availability++
			if up.BaseScore() < base {
				t.Fatalf("raising A lowered score: %s", v)
			}
		}
	}
}

// Raising any single impact metric must never lower the v3 base score.
func TestV3ImpactMonotonicity(t *testing.T) {
	for _, v := range AllV3Vectors() {
		base := v.BaseScore()
		for _, f := range []*ImpactV3{&v.Confidentiality, &v.Integrity, &v.Availability} {
			orig := *f
			if orig < ImpactV3High {
				*f = orig + 1
				if v.BaseScore() < base {
					t.Fatalf("raising impact lowered v3 score for %s", v)
				}
			}
			*f = orig
		}
	}
}

func TestV3ExploitabilityMonotonicity(t *testing.T) {
	// Moving AV toward Network, AC toward Low, PR toward None, UI toward
	// None must never lower the score.
	for _, v := range AllV3Vectors() {
		base := v.BaseScore()
		if v.AttackVector < AttackNetwork {
			up := v
			up.AttackVector++
			if up.BaseScore() < base {
				t.Fatalf("raising AV lowered score for %s", v)
			}
		}
		if v.PrivilegesRequired < PrivilegesNone {
			up := v
			up.PrivilegesRequired++
			if up.BaseScore() < base {
				t.Fatalf("raising PR lowered score for %s", v)
			}
		}
	}
}

func TestParseV2Errors(t *testing.T) {
	bad := []string{
		"",
		"AV:N/AC:L/Au:N/C:P/I:P", // missing A
		"AV:X/AC:L/Au:N/C:P/I:P/A:P",
		"AV:N/AC:X/Au:N/C:P/I:P/A:P",
		"AV:N/AC:L/Au:X/C:P/I:P/A:P",
		"AV:N/AC:L/Au:N/C:X/I:P/A:P",
		"no-colon-part",
	}
	for _, s := range bad {
		if _, err := ParseV2(s); err == nil {
			t.Errorf("ParseV2(%q) should fail", s)
		}
	}
}

func TestParseV2Parenthesized(t *testing.T) {
	v, err := ParseV2("(AV:N/AC:L/Au:N/C:P/I:P/A:P)")
	if err != nil {
		t.Fatalf("parenthesized vector: %v", err)
	}
	if v.BaseScore() != 7.5 {
		t.Errorf("score = %.1f, want 7.5", v.BaseScore())
	}
}

func TestParseV3Errors(t *testing.T) {
	bad := []string{
		"",
		"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H", // missing A
		"CVSS:3.0/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"CVSS:3.0/AV:N/AC:L/PR:X/UI:N/S:U/C:H/I:H/A:H",
		"CVSS:3.0/AV:N/AC:L/PR:N/UI:X/S:U/C:H/I:H/A:H",
		"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:X/C:H/I:H/A:H",
		"garbage",
	}
	for _, s := range bad {
		if _, err := ParseV3(s); err == nil {
			t.Errorf("ParseV3(%q) should fail", s)
		}
	}
}

func TestParseV3AcceptsV31Prefix(t *testing.T) {
	v, err := ParseV3("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
	if err != nil {
		t.Fatalf("v3.1 prefix: %v", err)
	}
	if v.BaseScore() != 9.8 {
		t.Errorf("score = %.1f, want 9.8", v.BaseScore())
	}
}

func TestAllVectorCounts(t *testing.T) {
	if n := len(AllV2Vectors()); n != 729 {
		t.Errorf("len(AllV2Vectors()) = %d, want 729", n)
	}
	if n := len(AllV3Vectors()); n != 2592 {
		t.Errorf("len(AllV3Vectors()) = %d, want 2592", n)
	}
}

func TestChangedScopeNeverLowersScore(t *testing.T) {
	// A changed scope reflects impact beyond the vulnerable component and
	// must not decrease the score relative to the identical unchanged
	// vector (the 1.08 multiplier and PR re-weighting only raise it).
	for _, v := range AllV3Vectors() {
		if v.Scope != ScopeUnchanged {
			continue
		}
		changed := v
		changed.Scope = ScopeChanged
		if changed.BaseScore() < v.BaseScore() {
			t.Fatalf("changed scope lowered score: %s %.1f -> %.1f",
				v, v.BaseScore(), changed.BaseScore())
		}
	}
}

func BenchmarkV2BaseScore(b *testing.B) {
	v, _ := ParseV2("AV:N/AC:M/Au:S/C:P/I:P/A:C")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.BaseScore()
	}
}

func BenchmarkV3BaseScore(b *testing.B) {
	v, _ := ParseV3("CVSS:3.0/AV:N/AC:L/PR:L/UI:R/S:C/C:H/I:L/A:N")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.BaseScore()
	}
}

func BenchmarkParseV3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = ParseV3("CVSS:3.0/AV:N/AC:L/PR:L/UI:R/S:C/C:H/I:L/A:N")
	}
}
