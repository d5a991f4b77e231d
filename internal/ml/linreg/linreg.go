// Package linreg implements ordinary least-squares linear regression with an
// optional ridge penalty — the "linear regression" entry among the paper's
// four WEKA candidates. WEKA's implementation falls back to a growing ridge
// when the normal equations are singular; mat.LeastSquares reproduces that
// behaviour.
package linreg

import (
	"repro/internal/mat"
	"repro/internal/ml"
)

// Model is a linear regression model. The zero value is ready to Fit; set
// Ridge for explicit regularization.
type Model struct {
	// Ridge is the L2 penalty added to the normal equations (0 = pure OLS
	// with automatic fallback on singularity).
	Ridge float64

	// Coef holds the fitted coefficients: Coef[0] is the intercept,
	// Coef[1:] align with the dataset attributes.
	Coef []float64
}

var _ ml.Regressor = (*Model)(nil)

// New returns an OLS model.
func New() *Model { return &Model{} }

// Name implements ml.Regressor.
func (m *Model) Name() string { return "LinearRegression" }

// Fit implements ml.Regressor by solving the (regularized) normal
// equations with an intercept column.
func (m *Model) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyDataset
	}
	cols := d.NumAttrs() + 1
	a := mat.NewDense(d.Len(), cols)
	for i, x := range d.X {
		row := a.Row(i)
		row[0] = 1
		copy(row[1:], x)
	}
	w, err := mat.LeastSquares(a, d.Y, m.Ridge)
	if err != nil {
		return err
	}
	m.Coef = w
	return nil
}

// Predict implements ml.Regressor.
func (m *Model) Predict(x []float64) float64 {
	if m.Coef == nil {
		panic("linreg: Predict before Fit")
	}
	y := m.Coef[0]
	for i, v := range x {
		y += m.Coef[i+1] * v
	}
	return y
}
