package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveTransposeMul is the pre-parallel reference kernel: row-major
// rank-1 accumulation over the full Gram matrix.
func naiveTransposeMul(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.Cols; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			dst := out.Data[a*m.Cols:]
			for b := 0; b < m.Cols; b++ {
				dst[b] += ra * row[b]
			}
		}
	}
	return out
}

func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0 // exercise the sparse skip
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestLinearRegressionFitMatchesNaiveNormalEquations pins Fit's fused,
// banded normal-equations kernel to the textbook construction: the
// explicit [1 | x] design matrix, its full Gram matrix from
// naiveTransposeMul plus the same ridge, and a serial right-hand side,
// solved with SolveSPDN on one worker. Fit must reproduce those
// weights bit for bit at any worker count.
func TestLinearRegressionFitMatchesNaiveNormalEquations(t *testing.T) {
	cases := []struct {
		rows, cols int
		ridge      float64
	}{
		{3000, 13, 0},
		{200, 13, 0},
		{57, 40, 0},
		{9, 2, 0.5},
	}
	for _, c := range cases {
		m := randomMatrix(c.rows, c.cols, int64(c.rows*31+c.cols))
		rng := rand.New(rand.NewSource(int64(c.rows)))
		x := make([][]float64, c.rows)
		y := make([]float64, c.rows)
		for i := range x {
			x[i] = m.Row(i)
			if rng.Intn(5) != 0 {
				y[i] = 10 * rng.Float64()
			}
		}
		design := NewMatrix(c.rows, c.cols+1)
		for i, row := range x {
			design.Set(i, 0, 1)
			copy(design.Row(i)[1:], row)
		}
		gram := naiveTransposeMul(design)
		lambda := c.ridge
		if lambda <= 0 {
			lambda = 1e-8
		}
		for j := 0; j < gram.Cols; j++ {
			gram.Set(j, j, gram.At(j, j)+lambda)
		}
		rhs := make([]float64, design.Cols)
		for i, yi := range y {
			for j, v := range design.Row(i) {
				rhs[j] += v * yi
			}
		}
		want, err := SolveSPDN(gram, rhs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			lr := LinearRegression{Ridge: c.ridge, Workers: w}
			if err := lr.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			got := lr.Weights()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%dx%d workers=%d: weight %d = %v, want %v",
						c.rows, c.cols, w, j, got[j], want[j])
				}
			}
		}
	}
}

func TestSolveSPDParallelMatchesSerial(t *testing.T) {
	// Build an SPD system big enough to cross the parallel threshold.
	n := spdParallelMin + 70
	src := randomMatrix(n+5, n, 13)
	spd := func() *Matrix {
		g := naiveTransposeMul(src)
		for j := 0; j < n; j++ {
			g.Set(j, j, g.At(j, j)+float64(n))
		}
		return g
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	want, err := SolveSPDN(spd(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := SolveSPDN(spd(), b, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestSVRFitWorkerInvariant(t *testing.T) {
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, math.Sin(3*a)+b*b)
	}
	fit := func(workers int) []float64 {
		s := SVR{Gamma: 0.3, C: 2, Workers: workers}
		if err := s.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return s.Alphas()
	}
	want := fit(1)
	for _, w := range []int{2, 8} {
		got := fit(w)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: alpha[%d] = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

// naiveKNNPredict is the full-sort reference the bounded heap must
// reproduce: sort every training point by (dist, label), take k, vote.
func naiveKNNPredict(k *KNN, kk int, row []float64) int {
	type cd struct {
		dist  float64
		label int
	}
	all := make([]cd, len(k.points))
	for i, p := range k.points {
		all[i] = cd{sqDist(row, p), k.labels[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].label < all[j].label
	})
	if kk > len(all) {
		kk = len(all)
	}
	votes := map[int]int{}
	for _, c := range all[:kk] {
		votes[c.label]++
	}
	winner, winVotes := 0, -1
	for label, n := range votes {
		if n > winVotes || (n == winVotes && label < winner) {
			winner, winVotes = label, n
		}
	}
	return winner
}

func TestKNNPredictMatchesFullSortAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3*knnChunk + 511 // force multiple scan chunks
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), float64(rng.Intn(3))}
		labels[i] = rng.Intn(7)
	}
	for _, kk := range []int{1, 5, 17} {
		for _, workers := range []int{1, 4} {
			knn := &KNN{K: kk, Workers: workers}
			if err := knn.Fit(x, labels); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				row := []float64{rng.NormFloat64(), rng.NormFloat64(), float64(rng.Intn(3))}
				got, err := knn.Predict(row)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveKNNPredict(knn, kk, row); got != want {
					t.Fatalf("k=%d workers=%d trial=%d: predict %d, want %d",
						kk, workers, trial, got, want)
				}
			}
		}
	}
}

func TestKNNPredictBatchMatchesSequentialPredict(t *testing.T) {
	knn := &KNN{K: 3, Workers: 4}
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {6, 5}, {5, 6}}
	labels := []int{0, 0, 0, 1, 1, 1}
	if err := knn.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0.2, 0.1}, {5.5, 5.2}, {2.5, 2.5}, {-1, -1}}
	batch, err := knn.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		one, err := knn.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one {
			t.Fatalf("row %d: batch %d != single %d", i, batch[i], one)
		}
	}
}
