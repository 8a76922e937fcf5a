package naming

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"nvdclean/internal/cve"
)

// The paper open-sources both the correction tools and the rectified
// dataset; the consolidation maps are the reusable artifact in between
// (§4.2 applies the NVD-derived vendor map to SecurityFocus and
// SecurityTracker). This file gives both map types a stable JSON form,
// and the survey the form a checkpoint persists it in.

// mapJSON is the serialized vendor map: alias → canonical.
type mapJSON struct {
	Kind    string            `json:"kind"`
	Vendors map[string]string `json:"vendors"`
}

// WriteJSON serializes the vendor map.
func (m *Map) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mapJSON{Kind: "vendor-map", Vendors: m.forward})
}

// ReadMapJSON loads a vendor map written by WriteJSON.
func ReadMapJSON(r io.Reader) (*Map, error) {
	var mj mapJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("naming: decoding vendor map: %w", err)
	}
	if mj.Kind != "vendor-map" {
		return nil, fmt.Errorf("naming: unexpected kind %q", mj.Kind)
	}
	return checkedMap(mj.Vendors)
}

// checkedMap wraps a decoded alias → canonical mapping, nil meaning
// none, once every entry maps a name to another one.
func checkedMap(forward map[string]string) (*Map, error) {
	if forward == nil {
		forward = map[string]string{}
	}
	for alias, canonical := range forward {
		if alias == "" || canonical == "" || alias == canonical {
			return nil, fmt.Errorf("naming: invalid mapping %q -> %q", alias, canonical)
		}
	}
	return &Map{forward: forward}, nil
}

// productMapJSON flattens the (vendor, product) keys as
// "vendor\tproduct" since JSON objects need string keys.
type productMapJSON struct {
	Kind     string            `json:"kind"`
	Products map[string]string `json:"products"`
}

const productKeySep = "\t"

// WriteJSON serializes the product map.
func (m *ProductMap) WriteJSON(w io.Writer) error {
	flat := make(map[string]string, len(m.forward))
	for k, canonical := range m.forward {
		flat[k[0]+productKeySep+k[1]] = canonical
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(productMapJSON{Kind: "product-map", Products: flat})
}

// surveyJSON is the serialized survey: the vendor map its product
// analysis ran under and both analyses' candidate pairs.
type surveyJSON struct {
	Kind         string            `json:"kind"`
	VendorMap    map[string]string `json:"vendorMap"`
	VendorPairs  []VendorPair      `json:"vendorPairs"`
	ProductPairs []ProductPair     `json:"productPairs"`
}

// WriteJSON serializes a completed survey.
func (s *Survey) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(surveyJSON{
		Kind:         "naming-survey",
		VendorMap:    s.vendorMap.forward,
		VendorPairs:  s.vendors.Pairs,
		ProductPairs: s.products.Pairs,
	})
}

// ReadSurveyJSON loads a survey written by WriteJSON as the completed
// survey of snap, the snapshot it surveyed, counting its tallies again
// from snap. Both pair lists must be in the order the analyses produce,
// since the surveys derived from this one search and splice them.
func ReadSurveyJSON(r io.Reader, snap *cve.Snapshot) (*Survey, error) {
	var sj surveyJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("naming: decoding survey: %w", err)
	}
	if sj.Kind != "naming-survey" {
		return nil, fmt.Errorf("naming: unexpected kind %q", sj.Kind)
	}
	vm, err := checkedMap(sj.VendorMap)
	if err != nil {
		return nil, err
	}
	if !ordered(sj.VendorPairs, func(p VendorPair) [3]string { return [3]string{"", p.A, p.B} }) {
		return nil, errors.New("naming: survey's vendor pairs out of (A, B) order")
	}
	if !ordered(sj.ProductPairs, func(p ProductPair) [3]string { return [3]string{p.Vendor, p.A, p.B} }) {
		return nil, errors.New("naming: survey's product pairs out of (Vendor, A, B) order")
	}
	vendorCVEs, pairCVEs := tally(snap.Entries, vendorName, strings.Compare), tally(snap.Entries, namedPair, comparePairs)
	return &Survey{
		pairs:     pairCVEs,
		vendors:   &VendorAnalysis{Pairs: sj.VendorPairs, CVECount: vendorCVEs, Products: productSets(pairCVEs, len(vendorCVEs))},
		products:  &ProductAnalysis{Pairs: sj.ProductPairs, CVECount: tally(snap.Entries, vm.pair, comparePairs)},
		vendorMap: vm,
	}, nil
}

// ordered reports whether the (group, A, B) keys of pairs strictly
// increase with A < B in each.
func ordered[P any](pairs []P, key func(P) [3]string) bool {
	var last [3]string
	for i, p := range pairs {
		k := key(p)
		if k[1] >= k[2] || i > 0 && slices.Compare(last[:], k[:]) >= 0 {
			return false
		}
		last = k
	}
	return true
}
