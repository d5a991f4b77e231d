package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zeroed at %d,%d", i, j)
			}
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v want 42.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v want 0", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a shared view of the storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims = %d,%d want 3,2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if got.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v want %v", i, j, got.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 0, -1, 2, 2, 2})
	got, err := MulVec(a, []float64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != 24 {
		t.Fatalf("MulVec = %v want [-2 24]", got)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

// refAdvance is an order-naive reference of the fused map out = a·x + b·y +
// u*s + v, used only to pin MulAddVec's value to within rounding slack.
func refAdvance(n int, a, b, u, v []float64, s float64, x, y []float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := u[i]*s + v[i]
		for j := 0; j < n; j++ {
			acc += a[i*n+j]*x[j] + b[i*n+j]*y[j]
		}
		out[i] = acc
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 50
	}
	return out
}

// TestMulAddVecMatchesReference checks the 4-accumulator kernel against the
// naive sum within rounding tolerance across sizes (including the n = 8
// phone case and the j-tail sizes around it).
func TestMulAddVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
		a, b := randSlice(rng, n*n), randSlice(rng, n*n)
		u, v := randSlice(rng, n), randSlice(rng, n)
		x, y := randSlice(rng, n), randSlice(rng, n)
		s := rng.NormFloat64()
		out := make([]float64, n)
		MulAddVec(n, a, b, u, v, s, x, y, out)
		want := refAdvance(n, a, b, u, v, s, x, y)
		for i := range out {
			if d := math.Abs(out[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d out[%d] = %v, reference %v (Δ %g)", n, i, out[i], want[i], d)
			}
		}
	}
}

func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(7, 4)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	want, err := Mul(a.T(), a)
	if err != nil {
		t.Fatal(err)
	}
	got := AtA(a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(got.At(i, j), want.At(i, j), 1e-12) {
				t.Fatalf("AtA[%d][%d] = %v want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestAtVecMatchesExplicit(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	y := []float64{1, -1, 2}
	got, err := AtVec(a, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MulVec(a.T(), y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("AtVec[%d] = %v want %v", i, got[i], want[i])
		}
	}
	if _, err := AtVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewDense(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected shape error for non-square matrix")
	}
	if _, err := Solve(NewDense(2, 2), []float64{1}); err == nil {
		t.Fatal("expected shape error for rhs length")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	b := []float64{5, 10}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || a.At(1, 1) != 3 || b[0] != 5 || b[1] != 10 {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	// SPD matrix.
	a := NewDenseData(3, 3, []float64{4, 2, 0.6, 2, 5, 1.5, 0.6, 1.5, 3})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt, err := Mul(l, l.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(llt.At(i, j), a.At(i, j), 1e-10) {
				t.Fatalf("LLᵀ[%d][%d] = %v want %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrSingular for indefinite matrix")
	}
}

func TestSolveCholeskyMatchesSolve(t *testing.T) {
	a := NewDenseData(3, 3, []float64{4, 2, 0.6, 2, 5, 1.5, 0.6, 1.5, 3})
	b := []float64{1, 2, 3}
	x1, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := SolveCholesky(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-10) {
			t.Fatalf("SolveCholesky[%d] = %v want %v", i, x2[i], x1[i])
		}
	}
}

func TestLeastSquaresRecoversExactLinear(t *testing.T) {
	// y = 3 + 2a - b with intercept column in the design matrix.
	rng := rand.New(rand.NewSource(7))
	n := 50
	a := NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		f1, f2 := rng.Float64()*10, rng.Float64()*10
		a.Set(i, 0, 1)
		a.Set(i, 1, f1)
		a.Set(i, 2, f2)
		y[i] = 3 + 2*f1 - f2
	}
	w, err := LeastSquares(a, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if !almostEq(w[i], want[i], 1e-8) {
			t.Fatalf("coef[%d] = %v want %v", i, w[i], want[i])
		}
	}
}

func TestLeastSquaresRankDeficientFallsBackToRidge(t *testing.T) {
	// Duplicate column -> singular normal equations; ridge fallback must
	// still return a finite solution that fits the data.
	n := 20
	a := NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, v)
		a.Set(i, 2, v) // identical to column 1
		y[i] = 5 + 4*v
	}
	w, err := LeastSquares(a, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range w {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("coef[%d] = %v not finite", i, c)
		}
	}
	// Prediction at v=10 should be close to 45 despite the degeneracy.
	pred := w[0] + w[1]*10 + w[2]*10
	if !almostEq(pred, 45, 0.5) {
		t.Fatalf("ridge-fallback prediction = %v want ≈45", pred)
	}
}

// Property: Solve(a, b) returns x with a*x ≈ b for random well-conditioned
// systems.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the system well conditioned.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 5
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := MulVec(a, x)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing twice is the identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewDense(r, c)
		for i := range m.data {
			m.data[i] = rng.NormFloat64()
		}
		tt := m.T().T()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The helpers below are test-only Dense constructors and references.

// NewDenseData wraps data (row-major, length r*c) in a Dense without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MulVec returns a*x as a new vector.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, a.rows, a.cols, len(x))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}
