package otherdb

import (
	"testing"

	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
)

func universe(t testing.TB) (*gen.Universe, *gen.Truth, *naming.Map) {
	t.Helper()
	snap, truth, uni, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	va := naming.AnalyzeVendorsN(snap, 0)
	return uni, truth, va.Consolidate(naming.HeuristicJudge{})
}

func TestBuildSizes(t *testing.T) {
	uni, _, _ := universe(t)
	sf := Build(uni, DefaultSF())
	st := Build(uni, DefaultST())
	if sf.Kind != SecurityFocus || st.Kind != SecurityTracker {
		t.Error("kinds wrong")
	}
	// SF tracks (essentially) the whole universe; ST a fraction
	// (paper: 24.8K vs 4.2K names).
	if len(sf.Vendors) <= 2*len(st.Vendors) {
		t.Errorf("SF (%d) should be much larger than ST (%d)", len(sf.Vendors), len(st.Vendors))
	}
	if sf.TrueInconsistent() == 0 {
		t.Error("SF has no injected inconsistencies")
	}
	// SF inconsistency rate should exceed ST's (8% vs 3%).
	sfRate := float64(sf.TrueInconsistent()) / float64(len(sf.Vendors))
	stRate := float64(st.TrueInconsistent()) / float64(len(st.Vendors))
	if sfRate <= stRate {
		t.Errorf("SF rate %.3f should exceed ST rate %.3f", sfRate, stRate)
	}
}

func TestBuildDeterministic(t *testing.T) {
	uni, _, _ := universe(t)
	a := Build(uni, DefaultSF())
	b := Build(uni, DefaultSF())
	if len(a.Vendors) != len(b.Vendors) {
		t.Fatal("non-deterministic size")
	}
	for i := range a.Vendors {
		if a.Vendors[i] != b.Vendors[i] {
			t.Fatal("non-deterministic vendor list")
		}
	}
}

func TestVendorsSortedUnique(t *testing.T) {
	uni, _, _ := universe(t)
	db := Build(uni, DefaultSF())
	for i := 1; i < len(db.Vendors); i++ {
		if db.Vendors[i-1] >= db.Vendors[i] {
			t.Fatalf("vendors not sorted/unique at %d: %q >= %q", i, db.Vendors[i-1], db.Vendors[i])
		}
	}
}

func TestApplyVendorMap(t *testing.T) {
	uni, _, m := universe(t)
	sf := Build(uni, DefaultSF())
	stats := sf.ApplyVendorMap(m)
	if stats.Names != len(sf.Vendors) {
		t.Errorf("Names = %d, want %d", stats.Names, len(sf.Vendors))
	}
	if stats.Impacted == 0 {
		t.Error("the NVD map found nothing in SF — shared aliases should match")
	}
	if stats.Consolidated == 0 || stats.Consolidated > stats.Impacted {
		t.Errorf("Consolidated = %d with Impacted = %d", stats.Consolidated, stats.Impacted)
	}
	// Most flagged names should be part of a genuinely inconsistent
	// group: either the flagged name or its consolidation target is an
	// injected alias. (The map may pick either side of a pair as
	// canonical, so check both directions.)
	var grounded int
	for _, name := range sf.Vendors {
		if !m.Mapped(name) {
			continue
		}
		if sf.TruthCanonical(name) != name || uniAliased(uni, name) || uniAliased(uni, m.Canonical(name)) {
			grounded++
		}
	}
	if float64(grounded) < 0.5*float64(stats.Impacted) {
		t.Errorf("only %d of %d flagged names trace to an injected inconsistency", grounded, stats.Impacted)
	}
}

// uniAliased reports whether name is an injected alias in the NVD
// universe.
func uniAliased(u *gen.Universe, name string) bool {
	for _, v := range u.Vendors {
		for _, a := range v.Aliases {
			if a.Name == name {
				return true
			}
		}
	}
	return false
}

func TestKindString(t *testing.T) {
	if SecurityFocus.String() != "SF" || SecurityTracker.String() != "ST" || Kind(0).String() != "?" {
		t.Error("Kind strings wrong")
	}
}

func BenchmarkBuildSF(b *testing.B) {
	_, _, uni, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(uni, DefaultSF())
	}
}
