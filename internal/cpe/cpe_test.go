package cpe

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatStringRoundTrip(t *testing.T) {
	tests := []Name{
		NewName(PartApplication, "microsoft", "internet_explorer", "11.0"),
		NewName(PartOS, "linux", "linux_kernel", Any),
		NewName(PartHardware, "cisco", "ucs-e160dp-m1_firmware", "1.0"),
		NewName(PartApplication, "avast!", "antivirus", "7.0"),
		NewName(PartApplication, "vendor:with:colons", "product*star", "1"),
	}
	for _, n := range tests {
		t.Run(n.Vendor+"/"+n.Product, func(t *testing.T) {
			s := n.FormatString()
			back, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			if back != n {
				t.Errorf("round trip: %+v -> %q -> %+v", n, s, back)
			}
		})
	}
}

func TestParse23Known(t *testing.T) {
	n, err := Parse("cpe:2.3:a:microsoft:internet_explorer:8.0.6001:beta:*:*:*:*:*:*")
	if err != nil {
		t.Fatal(err)
	}
	if n.Part != PartApplication || n.Vendor != "microsoft" || n.Product != "internet_explorer" {
		t.Errorf("parsed %+v", n)
	}
	if n.Version != "8.0.6001" || n.Update != "beta" {
		t.Errorf("version/update = %q/%q", n.Version, n.Update)
	}
}

func TestParse22(t *testing.T) {
	tests := []struct {
		in              string
		vendor, product string
		version         string
	}{
		{"cpe:/a:microsoft:internet_explorer:11.0", "microsoft", "internet_explorer", "11.0"},
		{"cpe:/o:linux:linux_kernel", "linux", "linux_kernel", Any},
		{"cpe:/a:bea:weblogic_server:8.1", "bea", "weblogic_server", "8.1"},
	}
	for _, tt := range tests {
		n, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if n.Vendor != tt.vendor || n.Product != tt.product || n.Version != tt.version {
			t.Errorf("Parse(%q) = %+v", tt.in, n)
		}
	}
}

func TestURIBinding(t *testing.T) {
	n := NewName(PartApplication, "microsoft", "internet_explorer", "11.0")
	if got, want := n.URI(), "cpe:/a:microsoft:internet_explorer:11.0"; got != want {
		t.Errorf("URI() = %q, want %q", got, want)
	}
	// Version Any is dropped from the URI tail.
	n2 := NewName(PartOS, "linux", "linux_kernel", Any)
	if got, want := n2.URI(), "cpe:/o:linux:linux_kernel"; got != want {
		t.Errorf("URI() = %q, want %q", got, want)
	}
}

func TestURIRoundTrip(t *testing.T) {
	orig := NewName(PartApplication, "oracle", "database_server", "9.2.0.3")
	back, err := Parse(orig.URI())
	if err != nil {
		t.Fatal(err)
	}
	if back.Vendor != orig.Vendor || back.Product != orig.Product || back.Version != orig.Version {
		t.Errorf("URI round trip: %+v -> %+v", orig, back)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"not-a-cpe",
		"cpe:2.3:a:vendor",                    // too few attributes
		"cpe:2.3:x:v:p:*:*:*:*:*:*:*:*",       // invalid part
		"cpe:2.3:a::p:*:*:*:*:*:*:*:*",        // empty vendor
		"cpe:/x:vendor:product",               // invalid part in URI
		"cpe:/a",                              // too few URI components
		"cpe:/a:v:p:1:2:3:4:5",                // too many URI components
		"cpe:2.3:a:v:p:*:*:*:*:*:*:*:*:extra", // too many attributes
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestEscaping(t *testing.T) {
	n := NewName(PartApplication, "a:b", "c*d", "1.0")
	s := n.FormatString()
	if !strings.Contains(s, `a\:b`) || !strings.Contains(s, `c\*d`) {
		t.Errorf("special characters not escaped in %q", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Vendor != "a:b" || back.Product != "c*d" {
		t.Errorf("unescape mismatch: %+v", back)
	}
}

func TestFormatStringRoundTripProperty(t *testing.T) {
	f := func(vendor, product, version string) bool {
		n := NewName(PartApplication, vendor, product, version)
		if string(n.AppendFormatString([]byte("x"))) != "x"+n.FormatString() {
			return false
		}
		// Skip values that are not representable (empty or containing a
		// backslash, which the simple escaper reserves).
		for _, s := range []string{vendor, product} {
			if s == "" || strings.ContainsAny(s, "\\") {
				return true
			}
		}
		if strings.ContainsAny(version, "\\") || version == "" {
			return true
		}
		back, err := Parse(n.FormatString())
		return err == nil && back == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var stringSink string

// TestFormatStringAllocs: FormatString binds through AppendFormatString
// into a stack buffer, so the returned string is its one allocation.
func TestFormatStringAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	for _, n := range []Name{
		NewName(PartApplication, "microsoft", "internet_explorer", "11.0"),
		NewName(PartOS, "vendor:with:colons", "product*star?", `back\slash`),
		{Part: PartHardware, Vendor: "cisco", Product: "-"},
	} {
		if allocs := testing.AllocsPerRun(100, func() { stringSink = n.FormatString() }); allocs > 1 {
			t.Errorf("FormatString of %q allocates %.0f times, want at most 1", n.FormatString(), allocs)
		}
	}
}

var nameSink Name

// TestParseAllocs: a 2.3 formatted string without escapes parses into
// substrings of itself, so Parse allocates nothing; only an escaped
// attribute is built anew, and it still reads back unescaped.
func TestParseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	for _, tc := range []struct {
		s      string
		allocs float64
	}{
		{"cpe:2.3:a:microsoft:internet_explorer:8.0.6001:beta:*:*:*:*:*:*", 0},
		{" cpe:2.3:o:linux:linux_kernel:-:*:*:*:*:*:*:* ", 0},
		{`cpe:2.3:a:vendor\:x:product:*:*:*:*:*:*:*:*`, 1},
	} {
		var err error
		if allocs := testing.AllocsPerRun(100, func() { nameSink, err = Parse(tc.s) }); allocs != tc.allocs {
			t.Errorf("Parse(%q) allocates %.0f times, want %.0f", tc.s, allocs, tc.allocs)
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.s, err)
		}
	}
	if nameSink.Vendor != "vendor:x" {
		t.Errorf("escaped vendor parsed as %q", nameSink.Vendor)
	}
}

func TestWithVendorProduct(t *testing.T) {
	n := NewName(PartApplication, "microsft", "ie", "11")
	m := n.WithVendor("microsoft").WithProduct("internet_explorer")
	if m.Vendor != "microsoft" || m.Product != "internet_explorer" {
		t.Errorf("WithVendor/WithProduct = %+v", m)
	}
	if n.Vendor != "microsft" {
		t.Error("original mutated")
	}
	v, p := m.Key()
	if v != "microsoft" || p != "internet_explorer" {
		t.Errorf("Key() = %q, %q", v, p)
	}
}

func TestPartValid(t *testing.T) {
	for _, p := range []Part{PartApplication, PartOS, PartHardware} {
		if !p.Valid() {
			t.Errorf("Part %c should be valid", p)
		}
	}
	if Part('x').Valid() {
		t.Error("Part x should be invalid")
	}
}

func BenchmarkParse23(b *testing.B) {
	s := "cpe:2.3:a:microsoft:internet_explorer:8.0.6001:beta:*:*:*:*:*:*"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Parse(s)
	}
}

func BenchmarkFormatString(b *testing.B) {
	n := NewName(PartApplication, "microsoft", "internet_explorer", "11.0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.FormatString()
	}
}
