// Package mat provides the small dense linear-algebra kernel used by the
// machine-learning regressors in this repository. It implements only what
// the regressors need — dense matrices, Gaussian elimination with partial
// pivoting, Cholesky factorization, and (ridge-regularized) least squares —
// with no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Mul returns a*b as a new matrix.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
}

// MulAddVec computes out = a·x + b·y + u*s + v for one n-vector column
// (a, b n×n row-major; u, v length-n vectors; s a scalar): the fused dense
// advance of a linear time-invariant step, the thermal propagator's
// per-tick kernel. out must not alias x or y. Slices may be longer than
// required; only the leading n (n×n for a and b) elements are read.
func MulAddVec(n int, a, b, u, v []float64, s float64, x, y, out []float64) {
	for i := 0; i < n; i++ {
		ar := a[i*n : i*n+n : i*n+n]
		br := b[i*n : i*n+n : i*n+n]
		// Four independent accumulators break the floating-point add
		// dependency chain; single-column advances are latency-bound.
		s0 := u[i]*s + v[i]
		var s1, s2, s3 float64
		j := 0
		for ; j+3 < n; j += 4 {
			s0 += ar[j]*x[j] + br[j]*y[j]
			s1 += ar[j+1]*x[j+1] + br[j+1]*y[j+1]
			s2 += ar[j+2]*x[j+2] + br[j+2]*y[j+2]
			s3 += ar[j+3]*x[j+3] + br[j+3]*y[j+3]
		}
		for ; j < n; j++ {
			s0 += ar[j]*x[j] + br[j]*y[j]
		}
		out[i] = (s0 + s1) + (s2 + s3)
	}
}

// AtA returns aᵀa (the Gram matrix), exploiting symmetry.
func AtA(a *Dense) *Dense {
	out := NewDense(a.cols, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for p := 0; p < a.cols; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			orow := out.Row(p)
			for q := p; q < a.cols; q++ {
				orow[q] += vp * row[q]
			}
		}
	}
	for p := 0; p < a.cols; p++ {
		for q := p + 1; q < a.cols; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
	return out
}

// AtVec returns aᵀy.
func AtVec(a *Dense, y []float64) ([]float64, error) {
	if a.rows != len(y) {
		return nil, fmt.Errorf("%w: (%dx%d)ᵀ*vec(%d)", ErrShape, a.rows, a.cols, len(y))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			out[j] += v * yi
		}
	}
	return out, nil
}

// Solve solves a*x = b for square a using Gaussian elimination with partial
// pivoting. a and b are not modified.
func Solve(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Solve needs a square matrix, got %dx%d", ErrShape, a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("%w: matrix %dx%d vs rhs %d", ErrShape, a.rows, a.cols, len(b))
	}
	n := a.rows
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: largest |value| in this column at or below the diagonal.
		piv := col
		maxAbs := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > maxAbs {
				maxAbs, piv = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			pr, cr := m.Row(piv), m.Row(col)
			for j := col; j < n; j++ {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		d := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / d
			if f == 0 {
				continue
			}
			rr, cr := m.Row(r), m.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := m.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Cholesky factors the symmetric positive-definite matrix a as LLᵀ and
// returns the lower-triangular factor L.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky needs a square matrix", ErrShape)
	}
	n := a.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			lrow, jrow := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				s -= lrow[k] * jrow[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a*x = b for SPD a via Cholesky factorization.
func SolveCholesky(a *Dense, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	if len(b) != n {
		return nil, ErrShape
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖a·x − y‖² via the normal equations with ridge
// regularization λ ≥ 0 on the Gram matrix diagonal. If the regularized
// system is still singular, λ is increased geometrically until it is
// solvable (matching WEKA's LinearRegression fallback behaviour).
func LeastSquares(a *Dense, y []float64, lambda float64) ([]float64, error) {
	if a.rows != len(y) {
		return nil, fmt.Errorf("%w: design %dx%d vs target %d", ErrShape, a.rows, a.cols, len(y))
	}
	gram := AtA(a)
	rhs, err := AtVec(a, y)
	if err != nil {
		return nil, err
	}
	if lambda < 0 {
		lambda = 0
	}
	ridge := lambda
	for attempt := 0; attempt < 20; attempt++ {
		g := gram.Clone()
		for i := 0; i < g.rows; i++ {
			g.Set(i, i, g.At(i, i)+ridge)
		}
		x, err := SolveCholesky(g, rhs)
		if err == nil {
			return x, nil
		}
		if ridge == 0 {
			ridge = 1e-8
		} else {
			ridge *= 10
		}
	}
	return nil, ErrSingular
}
