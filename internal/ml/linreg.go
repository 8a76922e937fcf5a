package ml

import (
	"errors"
	"fmt"

	"nvdclean/internal/parallel"
)

// LinearRegression is an ordinary-least-squares regressor with an
// intercept term and optional L2 (ridge) regularization. It is the "LR"
// model of Table 5, fitted in closed form via the normal equations.
type LinearRegression struct {
	// Ridge is the L2 penalty λ; 0 gives plain OLS. A tiny default is
	// applied during Fit to keep the normal equations well-conditioned
	// on collinear one-hot features.
	Ridge float64
	// Workers bounds the parallelism of Fit's matrix kernels. Zero
	// means GOMAXPROCS; the fit is bit-identical at any setting.
	Workers int

	weights []float64 // weights[0] is the intercept
}

// Fit estimates weights from rows of features x and targets y.
func (lr *LinearRegression) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return errors.New("ml: no training rows")
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(x), len(y))
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("ml: ragged feature row %d", i)
		}
	}
	// Normal equations over the implicit [1 | x] design matrix: the
	// intercept column is never materialized, so no design copy is
	// allocated. The Gram matrix is symmetric, so only its upper
	// triangle is accumulated and then mirrored. Output rows are banded
	// across workers, no two bands share an element, and every element
	// accumulates over the rows of x in ascending order whatever the
	// band layout, so the fit is bit-identical at any concurrency.
	n1 := d + 1
	gram := NewMatrix(n1, n1)
	rhs := make([]float64, n1)
	parallel.ForRange(lr.Workers, n1, bandWidth(n1, lr.Workers), func(a0, a1 int) {
		for _, row := range x {
			for a := a0; a < a1; a++ {
				dst := gram.Data[a*n1:]
				if a == 0 {
					dst[0]++
					for b := 1; b < n1; b++ {
						dst[b] += row[b-1]
					}
					continue
				}
				va := row[a-1]
				if va == 0 {
					continue
				}
				for b := a; b < n1; b++ {
					dst[b] += va * row[b-1]
				}
			}
		}
	})
	// Mirror the strict upper triangle.
	for a := 0; a < n1; a++ {
		for b := a + 1; b < n1; b++ {
			gram.Data[b*n1+a] = gram.Data[a*n1+b]
		}
	}
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		rhs[0] += yi
		row := x[i]
		for j, v := range row {
			rhs[j+1] += yi * v
		}
	}
	lambda := lr.Ridge
	if lambda <= 0 {
		lambda = 1e-8
	}
	for j := 0; j <= d; j++ {
		gram.Set(j, j, gram.At(j, j)+lambda)
	}
	w, err := SolveSPDN(gram, rhs, lr.Workers)
	if err != nil {
		return err
	}
	lr.weights = w
	return nil
}

// Predict returns the fitted value for one feature row.
func (lr *LinearRegression) Predict(row []float64) (float64, error) {
	if lr.weights == nil {
		return 0, errors.New("ml: model is not fitted")
	}
	if len(row) != len(lr.weights)-1 {
		return 0, fmt.Errorf("ml: feature dim %d, want %d", len(row), len(lr.weights)-1)
	}
	s := lr.weights[0]
	for j, v := range row {
		s += lr.weights[j+1] * v
	}
	return s, nil
}

// Weights returns a copy of the fitted coefficient vector (intercept
// first). It is nil before Fit.
func (lr *LinearRegression) Weights() []float64 {
	return append([]float64(nil), lr.weights...)
}

// LinearFromWeights reconstructs a fitted regressor from a coefficient
// vector (intercept first), the inverse of Weights.
func LinearFromWeights(weights []float64) (*LinearRegression, error) {
	if len(weights) < 2 {
		return nil, errors.New("ml: weight vector needs an intercept and at least one coefficient")
	}
	return &LinearRegression{weights: append([]float64(nil), weights...)}, nil
}
