package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Error("At wrong")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set wrong")
	}
	row := m.Row(1)
	if len(row) != 2 || row[0] != 3 {
		t.Error("Row wrong")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged should fail")
	}
}

func TestSolveSPD(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveSPDN(a, []float64{10, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.75) > 1e-10 || math.Abs(x[1]-1.5) > 1e-10 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSPDErrors(t *testing.T) {
	notSquare, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := SolveSPDN(notSquare, []float64{1, 2}, 1); err == nil {
		t.Error("non-square should fail")
	}
	sq, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	if _, err := SolveSPDN(sq, []float64{1}, 1); err == nil {
		t.Error("rhs dim mismatch should fail")
	}
	indefinite, _ := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := SolveSPDN(indefinite, []float64{1, 2}, 1); err == nil {
		t.Error("indefinite should fail")
	}
}

func TestLinearRegressionExactFit(t *testing.T) {
	// y = 2 + 3a - b, exactly recoverable.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, 2+3*a-b)
		}
	}
	var lr LinearRegression
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := lr.Predict([]float64{10, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-28) > 1e-4 {
		t.Errorf("Predict = %v, want 28", pred)
	}
	w := lr.Weights()
	if len(w) != 3 || math.Abs(w[0]-2) > 1e-4 || math.Abs(w[1]-3) > 1e-4 || math.Abs(w[2]+1) > 1e-4 {
		t.Errorf("Weights = %v", w)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var lr LinearRegression
	if err := lr.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := lr.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := lr.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged should fail")
	}
	if _, err := lr.Predict([]float64{1}); err == nil {
		t.Error("unfitted predict should fail")
	}
	if err := lr.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Predict([]float64{1, 2}); err == nil {
		t.Error("dim mismatch predict should fail")
	}
}

func TestLinearRegressionCollinearFeatures(t *testing.T) {
	// Duplicate columns are rank deficient under pure OLS; the default
	// ridge epsilon must keep the solve stable.
	x := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	var lr LinearRegression
	if err := lr.Fit(x, y); err != nil {
		t.Fatalf("collinear fit failed: %v", err)
	}
	pred, _ := lr.Predict([]float64{5, 5})
	if math.Abs(pred-10) > 0.01 {
		t.Errorf("Predict = %v, want 10", pred)
	}
}

func TestSVRFitsNonlinear(t *testing.T) {
	// y = sin(x) on [0, 3]: linear regression cannot fit this; RBF SVR
	// must get close.
	var x [][]float64
	var y []float64
	for i := 0; i <= 60; i++ {
		v := float64(i) * 0.05
		x = append(x, []float64{v})
		y = append(y, math.Sin(v))
	}
	s := SVR{Gamma: 1.0, C: 10}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1.5, 2.5} {
		pred, err := s.Predict([]float64{v})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred-math.Sin(v)) > 0.05 {
			t.Errorf("SVR(%v) = %v, want ≈%v", v, pred, math.Sin(v))
		}
	}
}

func TestSVRSubsampling(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		v := float64(i) / 100
		x = append(x, []float64{v})
		y = append(y, 2*v)
	}
	s := SVR{MaxSamples: 50}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s.NumCenters() != 50 {
		t.Errorf("NumCenters = %d, want 50", s.NumCenters())
	}
	pred, _ := s.Predict([]float64{2.0})
	if math.Abs(pred-4.0) > 0.3 {
		t.Errorf("subsampled SVR(2) = %v, want ≈4", pred)
	}
}

func TestSVRErrors(t *testing.T) {
	var s SVR
	if err := s.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := s.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched fit should fail")
	}
	if _, err := s.Predict([]float64{1}); err == nil {
		t.Error("unfitted predict should fail")
	}
	if err := s.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict([]float64{1, 2}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestKNNExactRecall(t *testing.T) {
	// k=1 must perfectly recall its own training points.
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {5, 5}}
	labels := []int{0, 0, 0, 1}
	var k KNN
	if err := k.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		pred, err := k.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if pred != labels[i] {
			t.Errorf("Predict(%v) = %d, want %d", row, pred, labels[i])
		}
	}
	acc, err := k.Accuracy(x, labels)
	if err != nil || acc != 1.0 {
		t.Errorf("Accuracy = %v, %v", acc, err)
	}
}

func TestKNNMajorityVote(t *testing.T) {
	x := [][]float64{{0}, {0.1}, {0.2}, {10}}
	labels := []int{7, 7, 3, 3}
	k := KNN{K: 3}
	if err := k.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	pred, err := k.Predict([]float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 7 {
		t.Errorf("majority vote = %d, want 7", pred)
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	k := KNN{K: 50}
	if err := k.Fit([][]float64{{0}, {1}}, []int{4, 4}); err != nil {
		t.Fatal(err)
	}
	pred, err := k.Predict([]float64{0.5})
	if err != nil || pred != 4 {
		t.Errorf("pred = %d, %v", pred, err)
	}
}

func TestKNNErrors(t *testing.T) {
	var k KNN
	if err := k.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := k.Fit([][]float64{{1}}, []int{1, 2}); err == nil {
		t.Error("mismatch should fail")
	}
	if err := k.Fit([][]float64{{1, 2}, {3}}, []int{1, 2}); err == nil {
		t.Error("ragged should fail")
	}
	if _, err := k.Predict([]float64{1}); err == nil {
		t.Error("unfitted predict should fail")
	}
	if err := k.Fit([][]float64{{1}}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Predict([]float64{1, 2}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := k.Accuracy([][]float64{{1}}, []int{1, 2}); err == nil {
		t.Error("accuracy mismatch should fail")
	}
}

func TestKNNDeterministicTieBreak(t *testing.T) {
	// Two equidistant neighbors with different labels: smaller label wins.
	x := [][]float64{{-1}, {1}}
	labels := []int{5, 2}
	var k KNN
	if err := k.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	pred, _ := k.Predict([]float64{0})
	if pred != 2 {
		t.Errorf("tie break = %d, want 2 (smaller label)", pred)
	}
}

func TestKNNFitCopiesData(t *testing.T) {
	x := [][]float64{{1}, {2}}
	labels := []int{0, 1}
	var k KNN
	if err := k.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	x[0][0] = 99
	labels[0] = 9
	pred, _ := k.Predict([]float64{1})
	if pred != 0 {
		t.Error("Fit did not copy training data")
	}
}

func TestSolveSPDPropertyRandomSPD(t *testing.T) {
	// For random B, A = BᵀB + I is SPD and SolveSPDN(A, A·x) ≈ x.
	f := func(seed uint8) bool {
		n := 4
		b := NewMatrix(n, n)
		v := int(seed) + 1
		for i := range b.Data {
			v = (v*1103515245 + 12345) % (1 << 20)
			b.Data[i] = float64(v%100)/50 - 1
		}
		a := naiveTransposeMul(b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		want := []float64{1, -2, 3, 0.5}
		rhs := make([]float64, n)
		for i := range rhs {
			for j, v := range a.Row(i) {
				rhs[i] += v * want[j]
			}
		}
		got, err := SolveSPDN(a, rhs, 1)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLinearRegressionFit(b *testing.B) {
	var x [][]float64
	var y []float64
	for i := 0; i < 5000; i++ {
		row := make([]float64, 13)
		for j := range row {
			row[j] = float64((i*7+j*13)%10) / 10
		}
		x = append(x, row)
		y = append(y, row[0]*3+row[5])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lr LinearRegression
		if err := lr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNPredict512D(b *testing.B) {
	const dim = 512
	var x [][]float64
	var labels []int
	for i := 0; i < 1000; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64((i+j)%17) / 17
		}
		x = append(x, row)
		labels = append(labels, i%151)
	}
	var k KNN
	if err := k.Fit(x, labels); err != nil {
		b.Fatal(err)
	}
	query := x[500]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Predict(query); err != nil {
			b.Fatal(err)
		}
	}
}
