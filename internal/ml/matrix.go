// Package ml implements the classic machine-learning algorithms the
// paper's §4.3–4.4 experiments use: linear regression, support-vector
// regression (realized as RBF kernel ridge regression, see DESIGN.md),
// and k-nearest-neighbor classification, together with the small dense
// linear-algebra kernel they need. Everything is stdlib-only and
// deterministic.
package ml

import (
	"errors"
	"fmt"
	"math"

	"nvdclean/internal/parallel"
)

// spdParallelMin is the matrix order below which SolveSPDN stays serial:
// the O(n²) inner updates of a small Cholesky cost less than waking
// workers.
const spdParallelMin = 256

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("ml: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("ml: empty matrix")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("ml: ragged row %d (%d cols, want %d)", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// bandWidth sizes column bands so each worker scans the input about
// once: ceil(cols / workers), capped at 64 so very wide matrices still
// split into enough chunks to load-balance.
func bandWidth(cols, workers int) int {
	w := parallel.Workers(workers)
	if w > cols {
		w = cols
	}
	b := (cols + w - 1) / w
	if b > 64 {
		b = 64
	}
	return b
}

// SolveSPDN solves A·x = b for symmetric positive-definite A using
// Cholesky decomposition, on up to workers goroutines (0 means
// GOMAXPROCS). A is overwritten with its factorization. The column
// eliminations below the pivot are independent of each other, so they
// fan out across workers; each entry's inner dot product keeps the
// serial summation order, making the factorization bit-identical at
// any concurrency.
func SolveSPDN(a *Matrix, b []float64, workers int) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("ml: SolveSPDN needs a square matrix")
	}
	if len(b) != n {
		return nil, fmt.Errorf("ml: SolveSPDN rhs dim %d != %d", len(b), n)
	}
	w := parallel.Workers(workers)
	if n < spdParallelMin {
		w = 1
	}
	// Cholesky: A = L·Lᵀ, stored in the lower triangle.
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		rowJ := a.Row(j)[:j]
		for _, l := range rowJ {
			d -= l * l
		}
		if d <= 0 {
			return nil, errors.New("ml: matrix is not positive definite")
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		below := n - (j + 1)
		parallel.ForRange(w, below, 128, func(start, end int) {
			for i := j + 1 + start; i < j+1+end; i++ {
				rowI := a.Row(i)
				s := rowI[j]
				for k, ljk := range rowJ {
					s -= rowI[k] * ljk
				}
				rowI[j] = s / d
			}
		})
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a.At(i, k) * y[k]
		}
		y[i] = s / a.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= a.At(k, i) * x[k]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}
