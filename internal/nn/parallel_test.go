package nn

import (
	"math"
	"math/rand"
	"testing"
)

// trainedPredictions fits a fresh network with the given worker count
// and returns its predictions over the training inputs.
func trainedPredictions(t *testing.T, build func() (*Network, error), x [][]float64, y []float64, workers int) []float64 {
	t.Helper()
	net, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 12, BatchSize: 32, LearningRate: 0.005, Seed: 9, Workers: workers}
	if err := net.Train(x, y, cfg); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = net.Predict(row)
	}
	return out
}

// TestTrainWorkerInvariant is the §tentpole determinism guarantee:
// training at concurrency 1 and concurrency N yields bit-identical
// weights, for both dense and convolutional stacks.
func TestTrainWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 6
	var x [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, 1/(1+math.Exp(-row[0]+0.5*row[1])))
	}
	builders := map[string]func() (*Network, error){
		"dnn": func() (*Network, error) { return CompactDNN(dim, 7) },
		"cnn": func() (*Network, error) { return CompactCNN(dim, 7) },
	}
	for name, build := range builders {
		base := trainedPredictions(t, build, x, y, 1)
		for _, w := range []int{2, 4, 8} {
			got := trainedPredictions(t, build, x, y, w)
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("%s workers=%d: prediction %d = %v, want %v (diff %g)",
						name, w, i, got[i], base[i], got[i]-base[i])
				}
			}
		}
	}
}

// TestTrainLossCallbackWorkerInvariant checks the reported epoch losses
// match bitwise across concurrency levels too.
func TestTrainLossCallbackWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 90; i++ {
		a := rng.Float64()
		x = append(x, []float64{a, a * a})
		y = append(y, 0.2+0.5*a)
	}
	losses := func(workers int) []float64 {
		net, err := CompactDNN(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		var ls []float64
		cfg := TrainConfig{
			Epochs: 6, BatchSize: 20, LearningRate: 0.01, Seed: 2, Workers: workers,
			OnEpoch: func(_ int, loss float64) { ls = append(ls, loss) },
		}
		if err := net.Train(x, y, cfg); err != nil {
			t.Fatal(err)
		}
		return ls
	}
	base := losses(1)
	for _, w := range []int{3, 8} {
		got := losses(w)
		for e := range got {
			if got[e] != base[e] {
				t.Fatalf("workers=%d epoch %d: loss %v != %v", w, e, got[e], base[e])
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	net, err := CompactCNN(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	batch := net.PredictBatch(rows, 4)
	for i, row := range rows {
		if one := net.Predict(row); batch[i] != one {
			t.Fatalf("row %d: batch %v != single %v", i, batch[i], one)
		}
	}
}

func TestInferenceReplicaSharesWeights(t *testing.T) {
	net, err := CompactDNN(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := net.replica(false)
	row := []float64{0.1, -0.4, 0.9}
	if got, want := rep.Predict(row), net.Predict(row); got != want {
		t.Fatalf("replica predicts %v, original %v", got, want)
	}
}
