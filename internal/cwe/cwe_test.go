package cwe

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{ID(89), "CWE-89"},
		{ID(835), "CWE-835"},
		{Other, "NVD-CWE-Other"},
		{NoInfo, "NVD-CWE-noinfo"},
		{Unassigned, ""},
		{ID(-7), "CWE--7"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("ID(%d).String() = %q, want %q", tt.id, got, tt.want)
		}
		if got := string(tt.id.Append([]byte("x"))); got != "x"+tt.want {
			t.Errorf("ID(%d).Append = %q, want %q", tt.id, got, "x"+tt.want)
		}
		if testing.Short() {
			continue // race builds count allocations differently
		}
		// A numeric ID costs its string; a meta one is a constant.
		budget := 1.0
		if tt.id == Unassigned || tt.id == Other || tt.id == NoInfo {
			budget = 0
		}
		if n := testing.AllocsPerRun(100, func() { stringSink = tt.id.String() }); n > budget {
			t.Errorf("ID(%d).String allocates %.0f times, want at most %.0f", tt.id, n, budget)
		}
	}
}

var stringSink string

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    ID
		wantErr bool
	}{
		{"CWE-89", ID(89), false},
		{"CWE-835", ID(835), false},
		{"NVD-CWE-Other", Other, false},
		{"NVD-CWE-noinfo", NoInfo, false},
		{"", Unassigned, false},
		{"  CWE-20  ", ID(20), false},
		{"CWE-", 0, true},
		{"CWE-abc", 0, true},
		{"CWE--5", 0, true},
		{"garbage", 0, true},
		{"CWE-0", 0, true},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		if n == 0 {
			return true
		}
		id := ID(n)
		back, err := Parse(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsMeta(t *testing.T) {
	for _, id := range []ID{Unassigned, Other, NoInfo} {
		if !id.IsMeta() {
			t.Errorf("%v should be meta", id)
		}
	}
	if ID(89).IsMeta() {
		t.Error("CWE-89 should not be meta")
	}
}

func TestExtract(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []ID
	}{
		{
			"paper example CVE-2007-0838",
			"CWE-835: Loop with Unreachable Exit Condition ('Infinite Loop')",
			[]ID{835},
		},
		{
			"multiple distinct",
			"combines CWE-89 with CWE-79 in the login form",
			[]ID{89, 79},
		},
		{
			"duplicates collapsed",
			"CWE-89 and again CWE-89",
			[]ID{89},
		},
		{"none", "a plain description of a buffer overflow", nil},
		{"meta form does not match", "labeled NVD-CWE-Other by the analyst", nil},
		{"bare prefix ignored", "the CWE- list", nil},
		{"embedded in sentence", "classified as CWE-119 (buffer errors).", []ID{119}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Extract(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("Extract(%q) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Errorf("Extract(%q)[%d] = %v, want %v", tt.in, i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Len() != 151 {
		t.Errorf("catalog size = %d, want 151 (the paper's class count)", r.Len())
	}
	name, ok := r.Name(ID(89))
	if !ok || !strings.Contains(name, "SQL") {
		t.Errorf("Name(89) = %q, %v", name, ok)
	}
	if _, ok := r.Name(ID(999999)); ok {
		t.Error("unknown id should not resolve")
	}
	if name, ok := r.Name(Other); !ok || name != "NVD-CWE-Other" {
		t.Errorf("Name(Other) = %q, %v", name, ok)
	}
	if _, ok := r.Name(Unassigned); ok {
		t.Error("Unassigned should not resolve")
	}
}

func TestRegistryAdd(t *testing.T) {
	r := NewRegistry()
	r.Add(ID(424242), "Test Weakness")
	if !r.Known(ID(424242)) {
		t.Error("added id should be known")
	}
	r.Add(Other, "should be ignored")
	if r.Known(Other) {
		t.Error("meta ids must not be addable")
	}
}

func TestRegistryIDsSorted(t *testing.T) {
	ids := NewRegistry().IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not strictly ascending at %d: %v >= %v", i, ids[i-1], ids[i])
		}
	}
}

func TestValidate(t *testing.T) {
	r := NewRegistry()
	in := []ID{ID(89), Other, ID(999999), NoInfo, ID(79), Unassigned}
	got := r.Validate(in)
	want := []ID{ID(89), ID(79)}
	if len(got) != len(want) {
		t.Fatalf("Validate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Validate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestShortName(t *testing.T) {
	if got := ShortName(ID(119)); got != "Buffer Overflow" {
		t.Errorf("ShortName(119) = %q", got)
	}
	if got := ShortName(ID(89)); got != "SQL Injection" {
		t.Errorf("ShortName(89) = %q", got)
	}
	if got := ShortName(ID(777)); got != "CWE-777" {
		t.Errorf("ShortName fallback = %q", got)
	}
}

func TestCatalogCoversTable10Types(t *testing.T) {
	// Every weakness named in Table 10 of the paper must be resolvable.
	r := NewRegistry()
	for _, id := range []ID{119, 89, 264, 20, 94, 399, 416, 189, 22, 285, 284, 255, 77, 200, 190, 352, 126, 310} {
		if !r.Known(id) {
			t.Errorf("Table 10 type %v missing from catalog", id)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	desc := "Evaluator comment: CWE-835: Loop with Unreachable Exit Condition ('Infinite Loop') affecting the parser, related to CWE-20."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(desc)
	}
}
