// Package cwe models the Common Weakness Enumeration taxonomy as used by
// the NVD: a registry of weakness IDs and names, the NVD's meta entries
// (NVD-CWE-Other, NVD-CWE-noinfo), and the regular-expression extraction
// of CWE IDs from free-form CVE descriptions described in §4.4 of the
// paper.
package cwe

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ID identifies a weakness. Positive values are standard CWE IDs
// ("CWE-89"); the NVD meta entries and the unassigned state are encoded
// as the reserved non-positive values below.
type ID int

// NVD meta entries. These indicate missing or non-specific typing and are
// filtered by the correction pipeline (§4.4).
const (
	// Unassigned marks a CVE with no CWE field at all.
	Unassigned ID = 0
	// Other is the NVD-CWE-Other meta entry.
	Other ID = -1
	// NoInfo is the NVD-CWE-noinfo meta entry.
	NoInfo ID = -2
)

// IsMeta reports whether the ID is a meta entry (or unassigned) rather
// than a concrete weakness type.
func (id ID) IsMeta() bool { return id <= 0 }

// String formats the ID in NVD notation: "CWE-89", "NVD-CWE-Other",
// "NVD-CWE-noinfo", or "" for Unassigned.
func (id ID) String() string {
	switch id {
	case Unassigned:
		return ""
	case Other:
		return "NVD-CWE-Other"
	case NoInfo:
		return "NVD-CWE-noinfo"
	}
	return string(id.Append(make([]byte, 0, 24)))
}

// Append appends the ID, as String formats it, to b and returns the
// extended buffer.
func (id ID) Append(b []byte) []byte {
	switch id {
	case Unassigned, Other, NoInfo:
		return append(b, id.String()...)
	}
	return strconv.AppendInt(append(b, "CWE-"...), int64(id), 10)
}

// Parse converts an NVD CWE field string to an ID. Empty strings parse as
// Unassigned.
func Parse(s string) (ID, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "":
		return Unassigned, nil
	case "NVD-CWE-Other":
		return Other, nil
	case "NVD-CWE-noinfo":
		return NoInfo, nil
	}
	rest, ok := strings.CutPrefix(s, "CWE-")
	if !ok {
		return Unassigned, fmt.Errorf("cwe: malformed id %q", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return Unassigned, fmt.Errorf("cwe: malformed id %q", s)
	}
	return ID(n), nil
}

// extractRE is the paper's extraction pattern (§4.4): "The CWE-ID follows
// a standard and distinct format that allows us to easily identify IDs in
// description strings through a regular expression (i.e., CWE-[0-9]*)."
// We require at least one digit so the bare string "CWE-" does not match.
var extractRE = regexp.MustCompile(`CWE-([0-9]+)`)

// Extract returns the distinct CWE IDs embedded in a free-form
// description, in order of first appearance. Meta entries never match
// because their textual forms ("NVD-CWE-Other") do contain "CWE-" followed
// by letters, not digits.
func Extract(description string) []ID {
	matches := extractRE.FindAllStringSubmatch(description, -1)
	if len(matches) == 0 {
		return nil
	}
	seen := make(map[ID]struct{}, len(matches))
	var out []ID
	for _, m := range matches {
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= 0 {
			continue
		}
		id := ID(n)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// Registry is a catalog of weakness definitions, mirroring the CWE list
// download the paper matches extracted IDs against.
type Registry struct {
	names map[ID]string
}

// NewRegistry returns a registry pre-populated with the built-in catalog.
func NewRegistry() *Registry {
	r := &Registry{names: make(map[ID]string, len(catalog))}
	for id, name := range catalog {
		r.names[id] = name
	}
	return r
}

// Name returns the weakness name for id and whether the id is known.
func (r *Registry) Name(id ID) (string, bool) {
	switch id {
	case Other:
		return "NVD-CWE-Other", true
	case NoInfo:
		return "NVD-CWE-noinfo", true
	case Unassigned:
		return "", false
	}
	name, ok := r.names[id]
	return name, ok
}

// Known reports whether id is a concrete weakness in the catalog.
func (r *Registry) Known(id ID) bool {
	if id.IsMeta() {
		return false
	}
	_, ok := r.names[id]
	return ok
}

// Add registers (or renames) a weakness definition.
func (r *Registry) Add(id ID, name string) {
	if id.IsMeta() {
		return
	}
	r.names[id] = name
}

// Len returns the number of concrete weaknesses in the catalog.
func (r *Registry) Len() int { return len(r.names) }

// IDs returns all concrete weakness IDs in ascending order.
func (r *Registry) IDs() []ID {
	out := make([]ID, 0, len(r.names))
	for id := range r.names {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate filters ids down to concrete weaknesses known to the registry,
// preserving order. It is the filtering step of the §4.4 correction: meta
// entries and unknown IDs are dropped.
func (r *Registry) Validate(ids []ID) []ID {
	var out []ID
	for _, id := range ids {
		if r.Known(id) {
			out = append(out, id)
		}
	}
	return out
}
