package predict

import (
	"testing"
)

func TestFeatureImportance(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelLR}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := eng.FeatureImportanceN(ds, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != NumFeatures {
		t.Fatalf("importance entries = %d, want %d", len(imp), NumFeatures)
	}
	// Sorted descending.
	for i := 1; i < len(imp); i++ {
		if imp[i].AccuracyDrop > imp[i-1].AccuracyDrop {
			t.Fatal("importance not sorted")
		}
	}
	// The paper finds confidentiality, base score and integrity highly
	// influential — at minimum, impact-related features must beat the
	// near-constant privilege flags.
	rank := make(map[string]int)
	for i, im := range imp {
		rank[im.Feature] = i
	}
	impactBest := min3(rank["confidentiality"], rank["integrity"], rank["base score"])
	if impactBest > 6 {
		t.Errorf("no impact feature in the top half: ranks C=%d I=%d base=%d",
			rank["confidentiality"], rank["integrity"], rank["base score"])
	}
	// Top feature has a materially positive drop.
	if imp[0].AccuracyDrop <= 0.01 {
		t.Errorf("top importance %.4f too small", imp[0].AccuracyDrop)
	}
}

func TestFeatureImportanceErrors(t *testing.T) {
	snap, _ := generateSnapshot(t)
	ds, err := BuildDataset(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Train(ds, []ModelKind{ModelLR}, fastConfig)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Dataset{Encoder: ds.Encoder}
	if _, err := eng.FeatureImportanceN(empty, 1, 0); err == nil {
		t.Error("empty test split should fail")
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
