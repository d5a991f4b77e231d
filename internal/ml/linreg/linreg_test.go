package linreg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
)

func TestRecoversExactLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := ml.NewDataset("a", "b", "c")
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64()}
		d.Add(x, 7-3*x[0]+0.5*x[1]+2*x[2])
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	want := []float64{7, -3, 0.5, 2}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 1e-8 {
			t.Fatalf("coef[%d] = %v want %v", i, m.Coef[i], w)
		}
	}
	pred := m.Predict([]float64{1, 2, 3})
	if math.Abs(pred-(7-3+1+6)) > 1e-8 {
		t.Fatalf("Predict = %v want 11", pred)
	}
}

func TestNoisyFitIsUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := ml.NewDataset("x")
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * 10
		d.Add([]float64{x}, 3+2*x+rng.NormFloat64()*0.5)
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-3) > 0.1 || math.Abs(m.Coef[1]-2) > 0.02 {
		t.Fatalf("coef = %v want ≈[3 2]", m.Coef)
	}
}

func TestCollinearFeaturesStillFit(t *testing.T) {
	d := ml.NewDataset("a", "b")
	for i := 0; i < 50; i++ {
		v := float64(i)
		d.Add([]float64{v, v}, 1+4*v) // perfectly collinear
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := m.Predict([]float64{10, 10})
	if math.Abs(pred-41) > 0.5 {
		t.Fatalf("collinear prediction = %v want ≈41", pred)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := ml.NewDataset("a")
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		d.Add([]float64{x}, 10*x)
	}
	ols := New()
	ridge := NewRidge(100)
	if err := ols.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := ridge.Fit(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ridge.Coef[1]) >= math.Abs(ols.Coef[1]) {
		t.Fatalf("ridge slope %v not shrunk vs OLS %v", ridge.Coef[1], ols.Coef[1])
	}
}

func TestEmptyDataset(t *testing.T) {
	m := New()
	if err := m.Fit(ml.NewDataset("x")); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Predict([]float64{1})
}

func TestName(t *testing.T) {
	if New().Name() != "LinearRegression" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestSingleInstance(t *testing.T) {
	d := ml.NewDataset("x")
	d.Add([]float64{2}, 7)
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2}); math.Abs(p-7) > 0.5 {
		t.Fatalf("single-instance prediction = %v want ≈7", p)
	}
}

func TestCrossValidationAccuracyOnLinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := ml.NewDataset("a", "b")
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64() * 40, rng.Float64() * 4}
		d.Add(x, 30+0.2*x[0]+1.5*x[1]+rng.NormFloat64()*0.1)
	}
	exp, pred, err := ml.CrossValidate(func() ml.Regressor { return New() }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := ml.R2(exp, pred); r2 < 0.99 {
		t.Fatalf("CV R2 = %v want > 0.99 on near-noiseless linear data", r2)
	}
}

// NewRidge returns a ridge-regularized model.
func NewRidge(lambda float64) *Model { return &Model{Ridge: lambda} }
