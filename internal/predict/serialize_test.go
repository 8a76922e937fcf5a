package predict

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

func TestEngineJSONRoundTrip(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, AllModels(), fastConfig)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEngineJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if back.Best() != eng.Best() {
		t.Errorf("best = %v, want %v", back.Best(), eng.Best())
	}
	// Every model must predict identically after the round trip.
	vectors := []string{
		"AV:N/AC:L/Au:N/C:C/I:C/A:C",
		"AV:N/AC:M/Au:N/C:P/I:P/A:N",
		"AV:L/AC:H/Au:S/C:P/I:N/A:N",
		"AV:A/AC:L/Au:N/C:N/I:N/A:C",
	}
	for _, kind := range AllModels() {
		for _, vs := range vectors {
			v2, perr := cvss.ParseV2(vs)
			if perr != nil {
				t.Fatal(perr)
			}
			for _, id := range []cwe.ID{cwe.ID(89), cwe.ID(79), cwe.Unassigned} {
				want, err1 := eng.PredictWith(kind, v2, id)
				got, err2 := back.PredictWith(kind, v2, id)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %v / %v", kind, err1, err2)
				}
				if math.Abs(want-got) > 1e-9 {
					t.Errorf("%s %s cwe=%v: %.6f != %.6f", kind, vs, id, want, got)
				}
			}
		}
	}
	// Evaluations survive.
	for _, kind := range AllModels() {
		a, b := eng.Evaluation(kind), back.Evaluation(kind)
		if b == nil {
			t.Fatalf("%s: evaluation lost", kind)
		}
		if math.Abs(a.Accuracy-b.Accuracy) > 1e-12 || math.Abs(a.AE-b.AE) > 1e-12 {
			t.Errorf("%s: evaluation changed", kind)
		}
		for sev, acc := range a.ByV2Class {
			if math.Abs(b.ByV2Class[sev]-acc) > 1e-12 {
				t.Errorf("%s: per-class accuracy changed for %v", kind, sev)
			}
		}
	}
}

func TestReadEngineJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "{"},
		{"wrong kind", `{"kind":"other"}`},
		{"unknown model", `{"kind":"severity-engine","best":"LR","models":{"XX":{"linear":[1,2]}}}`},
		{"empty payload", `{"kind":"severity-engine","best":"LR","models":{"LR":{}}}`},
		{"best missing", `{"kind":"severity-engine","best":"CNN","models":{"LR":{"linear":[1,2]}}}`},
		{"bad linear", `{"kind":"severity-engine","best":"LR","models":{"LR":{"linear":[1]}}}`},
		{"bad encoder key", `{"kind":"severity-engine","best":"LR","models":{"LR":{"linear":[1,2]}},"cwe_encoder":{"garbage":0.5}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEngineJSON(strings.NewReader(tc.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestLoadedEngineBackports(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelLR}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEngineJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := eng.BackportAllN(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.BackportAllN(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Scores) != len(b2.Scores) {
		t.Fatalf("backport sizes differ: %d vs %d", len(b1.Scores), len(b2.Scores))
	}
	for id, s := range b1.Scores {
		if math.Abs(b2.Scores[id]-s) > 1e-9 {
			t.Fatalf("%s: %.6f != %.6f", id, s, b2.Scores[id])
		}
	}
}
