package naming

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"
)

func TestVendorMapJSONRoundTrip(t *testing.T) {
	orig := NewMap(map[string]string{
		"microsft":    "microsoft",
		"bea_systems": "bea",
		"avast!":      "avast",
	})
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMapJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), orig.Len())
	}
	for alias, canonical := range orig.Entries() {
		if got := back.Canonical(alias); got != canonical {
			t.Errorf("Canonical(%q) = %q, want %q", alias, got, canonical)
		}
	}
}

func TestReadMapJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "{"},
		{"wrong kind", `{"kind":"product-map","vendors":{}}`},
		{"self mapping", `{"kind":"vendor-map","vendors":{"a":"a"}}`},
		{"empty alias", `{"kind":"vendor-map","vendors":{"":"x"}}`},
		{"empty canonical", `{"kind":"vendor-map","vendors":{"x":""}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMapJSON(strings.NewReader(tc.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
	// Empty mapping is fine.
	m, err := ReadMapJSON(strings.NewReader(`{"kind":"vendor-map"}`))
	if err != nil || m.Len() != 0 {
		t.Errorf("empty map: %v, %v", m, err)
	}
}

// TestProductMapWriteJSONLayout pins the document nvdclean
// -product-map writes: kind "product-map", and each (vendor, alias)
// key flattened to "vendor\tproduct" and mapped to its canonical name.
func TestProductMapWriteJSONLayout(t *testing.T) {
	pm := AnalyzeProductsN(productSnapshot(), 0).Consolidate(HeuristicProductJudge{})
	if pm.Len() == 0 {
		t.Fatal("fixture produced empty product map")
	}
	var buf bytes.Buffer
	if err := pm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Kind     string            `json:"kind"`
		Products map[string]string `json:"products"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for k, canonical := range pm.Entries() {
		want[k[0]+"\t"+k[1]] = canonical
	}
	if doc.Kind != "product-map" || !maps.Equal(doc.Products, want) {
		t.Errorf("product map written as kind %q with %v, want product-map with %v", doc.Kind, doc.Products, want)
	}
}

// TestReadSurveyJSONErrors feeds ReadSurveyJSON documents a store could
// read from a damaged disk or a faulty primary: each must fail rather
// than load a survey whose derivations would search or splice pairs
// out of order.
func TestReadSurveyJSONErrors(t *testing.T) {
	snap := paperSnapshot()
	for _, tc := range []struct{ name, in string }{
		{"not json", "{"},
		{"wrong kind", `{"kind":"vendor-map","vendors":{}}`},
		{"self mapping", `{"kind":"naming-survey","vendorMap":{"a":"a"}}`},
		{"empty canonical", `{"kind":"naming-survey","vendorMap":{"a":""}}`},
		{"vendor pairs out of order", `{"kind":"naming-survey","vendorPairs":[{"A":"b","B":"c"},{"A":"a","B":"c"}]}`},
		{"vendor pair repeated", `{"kind":"naming-survey","vendorPairs":[{"A":"a","B":"c"},{"A":"a","B":"c"}]}`},
		{"vendor pair names reversed", `{"kind":"naming-survey","vendorPairs":[{"A":"c","B":"a"}]}`},
		{"product pairs out of vendor order", `{"kind":"naming-survey","productPairs":[{"Vendor":"v","A":"a","B":"b"},{"Vendor":"u","A":"a","B":"b"}]}`},
		{"product pairs out of order", `{"kind":"naming-survey","productPairs":[{"Vendor":"v","A":"a","B":"c"},{"Vendor":"v","A":"a","B":"b"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSurveyJSON(strings.NewReader(tc.in), snap); err == nil {
				t.Error("expected error")
			}
		})
	}
	// A survey with no pairs and an empty map is fine, and its tallies
	// come from the snapshot.
	sv, err := ReadSurveyJSON(strings.NewReader(`{"kind":"naming-survey","vendorPairs":[],"productPairs":[]}`), snap)
	if err != nil || sv.vendorMap.Len() != 0 || !maps.Equal(sv.vendors.CVECount, snap.VendorCVECount()) {
		t.Errorf("empty survey: %v", err)
	}
}

func TestSerializedMapAppliesAcrossProcesses(t *testing.T) {
	// Simulate the §4.2 cross-database workflow: consolidate on one
	// snapshot, serialize, load elsewhere, apply to different strings.
	snap := paperSnapshot()
	va := AnalyzeVendorsN(snap, 0)
	m := va.Consolidate(HeuristicJudge{})
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMapJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Canonical("microsft"); got != "microsoft" {
		t.Errorf("loaded map Canonical(microsft) = %q", got)
	}
}
