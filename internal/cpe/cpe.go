// Package cpe implements the Common Platform Enumeration naming scheme
// used by the NVD to identify affected vendors and products: CPE 2.3
// formatted strings ("cpe:2.3:a:microsoft:internet_explorer:11.0:*:...")
// and the legacy CPE 2.2 URI binding ("cpe:/a:microsoft:internet_explorer:
// 11.0"). The vendor and product components of these names are the
// subject of the §4.2 inconsistency study.
package cpe

import (
	"fmt"
	"strings"
)

// Part classifies the platform a CPE name describes.
type Part byte

// Part values defined by the CPE specification.
const (
	PartApplication Part = 'a'
	PartOS          Part = 'o'
	PartHardware    Part = 'h'
)

// Valid reports whether p is one of the three defined part values.
func (p Part) Valid() bool {
	return p == PartApplication || p == PartOS || p == PartHardware
}

// Any is the CPE 2.3 logical value matching any value ("*").
const Any = "*"

// Name is a parsed CPE name. Vendor and Product are the fields the
// cleaning pipeline rewrites; the remaining attributes are carried
// through unmodified.
type Name struct {
	Part      Part
	Vendor    string
	Product   string
	Version   string
	Update    string
	Edition   string
	Language  string
	SWEdition string
	TargetSW  string
	TargetHW  string
	Other     string
}

// NewName returns an application Name with all optional attributes set to
// Any, the common shape of NVD CPE match strings.
func NewName(part Part, vendor, product, version string) Name {
	if version == "" {
		version = Any
	}
	return Name{
		Part: part, Vendor: vendor, Product: product, Version: version,
		Update: Any, Edition: Any, Language: Any, SWEdition: Any,
		TargetSW: Any, TargetHW: Any, Other: Any,
	}
}

// attrs returns the eleven attributes in formatted-string order.
func (n Name) attrs() [11]string {
	return [11]string{
		string(n.Part), n.Vendor, n.Product, n.Version, n.Update,
		n.Edition, n.Language, n.SWEdition, n.TargetSW, n.TargetHW, n.Other,
	}
}

// FormatString binds the name to a CPE 2.3 formatted string.
func (n Name) FormatString() string {
	return string(n.AppendFormatString(make([]byte, 0, 128)))
}

// AppendFormatString appends the name's CPE 2.3 formatted string, as
// FormatString binds it, to b and returns the extended buffer.
func (n Name) AppendFormatString(b []byte) []byte {
	b = append(b, "cpe:2.3"...)
	for _, a := range n.attrs() {
		b = append(b, ':')
		b = appendEscaped(b, a)
	}
	return b
}

// URI binds the name to the legacy CPE 2.2 URI form used by older NVD
// feeds, dropping the extended attributes.
func (n Name) URI() string {
	parts := []string{string(n.Part), n.Vendor, n.Product, n.Version, n.Update, n.Edition, n.Language}
	// Trailing Any components are omitted in the URI binding.
	end := len(parts)
	for end > 3 && (parts[end-1] == Any || parts[end-1] == "") {
		end--
	}
	var b strings.Builder
	b.WriteString("cpe:/")
	for i, p := range parts[:end] {
		if i > 0 {
			b.WriteByte(':')
		}
		if p == Any {
			p = ""
		}
		b.WriteString(p)
	}
	return b.String()
}

// String returns the formatted-string binding.
func (n Name) String() string { return n.FormatString() }

// appendEscaped appends s with the characters the 2.3 grammar reserves
// backslash-escaped, leaving the logical values "*" and "-" intact; an
// empty attribute binds as "*".
func appendEscaped(b []byte, s string) []byte {
	switch s {
	case "":
		return append(b, Any...)
	case Any, "-":
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ':', '*', '?', '\\':
			b = append(b, '\\', c)
		default:
			b = append(b, c)
		}
	}
	return b
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// splitEscaped splits s on its unescaped colons into fields and returns
// how many fields s has; past len(fields), it only counts them. Each
// field is a substring of s with its escapes kept.
func splitEscaped(s string, fields []string) int {
	n, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte; a trailing backslash stays as is
		case ':':
			if n < len(fields) {
				fields[n] = s[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < len(fields) {
		fields[n] = s[start:]
	}
	return n + 1
}

// Parse parses either binding: a CPE 2.3 formatted string or a CPE 2.2
// URI. A 2.3 attribute without a backslash escape is a substring of s,
// so parsing such a string allocates nothing; only an escaped attribute
// is built anew.
func Parse(s string) (Name, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "cpe:2.3:"):
		return parse23(s)
	case strings.HasPrefix(s, "cpe:/"):
		return parse22(s)
	default:
		return Name{}, fmt.Errorf("cpe: unrecognized binding %q", s)
	}
}

func parse23(s string) (Name, error) {
	var fields [11]string
	if n := splitEscaped(strings.TrimPrefix(s, "cpe:2.3:"), fields[:]); n != len(fields) {
		return Name{}, fmt.Errorf("cpe: formatted string has %d attributes, want 11: %q", n, s)
	}
	if len(fields[0]) != 1 || !Part(fields[0][0]).Valid() {
		return Name{}, fmt.Errorf("cpe: invalid part %q", fields[0])
	}
	n := Name{Part: Part(fields[0][0])}
	dst := []*string{
		&n.Vendor, &n.Product, &n.Version, &n.Update, &n.Edition,
		&n.Language, &n.SWEdition, &n.TargetSW, &n.TargetHW, &n.Other,
	}
	for i, p := range dst {
		*p = unescape(fields[i+1])
	}
	if n.Vendor == "" || n.Product == "" {
		return Name{}, fmt.Errorf("cpe: empty vendor or product in %q", s)
	}
	// Any other empty attribute reads as ANY, as an empty 2.2 component
	// does and as the name binds it, so a parsed name formats and
	// parses back to itself.
	for _, p := range dst[2:] {
		if *p == "" {
			*p = Any
		}
	}
	return n, nil
}

func parse22(s string) (Name, error) {
	fields := strings.Split(strings.TrimPrefix(s, "cpe:/"), ":")
	if len(fields) < 3 || len(fields) > 7 {
		return Name{}, fmt.Errorf("cpe: URI has %d components, want 3-7: %q", len(fields), s)
	}
	if len(fields[0]) != 1 || !Part(fields[0][0]).Valid() {
		return Name{}, fmt.Errorf("cpe: invalid part %q", fields[0])
	}
	n := Name{Part: Part(fields[0][0])}
	get := func(i int) string {
		if i < len(fields) && fields[i] != "" {
			return fields[i]
		}
		return Any
	}
	n.Vendor = fields[1]
	n.Product = fields[2]
	n.Version = get(3)
	n.Update = get(4)
	n.Edition = get(5)
	n.Language = get(6)
	n.SWEdition, n.TargetSW, n.TargetHW, n.Other = Any, Any, Any, Any
	if n.Vendor == "" || n.Product == "" {
		return Name{}, fmt.Errorf("cpe: empty vendor or product in %q", s)
	}
	return n, nil
}

// WithVendor returns a copy of n with the vendor replaced, used when the
// naming pipeline remaps an inconsistent vendor to its consistent form.
func (n Name) WithVendor(vendor string) Name {
	n.Vendor = vendor
	return n
}

// WithProduct returns a copy of n with the product replaced.
func (n Name) WithProduct(product string) Name {
	n.Product = product
	return n
}

// Key returns the (vendor, product) pair that identifies the software
// for inconsistency analysis, ignoring version and packaging attributes.
func (n Name) Key() (vendor, product string) {
	return n.Vendor, n.Product
}
