package m5p

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

func TestRecoversGlobalLinearFunction(t *testing.T) {
	// A single linear model fits globally, so pruning should collapse the
	// tree to (near) a stump and predictions should be near-exact.
	rng := rand.New(rand.NewSource(1))
	d := ml.NewDataset("a", "b")
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		d.Add(x, 3+2*x[0]-x[1])
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		want := 3 + 2*x[0] - x[1]
		if got := m.Predict(x); math.Abs(got-want) > 0.2 {
			t.Fatalf("Predict(%v) = %v want %v", x, got, want)
		}
	}
	if m.NumNodes() > 3 {
		t.Fatalf("globally linear data should prune hard, got %d nodes", m.NumNodes())
	}
}

func TestRecoversPiecewiseLinear(t *testing.T) {
	// Two linear regimes joined at x=5: the classic M5 showcase.
	rng := rand.New(rand.NewSource(2))
	d := ml.NewDataset("x")
	target := func(x float64) float64 {
		if x <= 5 {
			return 2 * x
		}
		return 10 - 3*(x-5)
	}
	for i := 0; i < 600; i++ {
		x := rng.Float64() * 10
		d.Add([]float64{x}, target(x)+rng.NormFloat64()*0.05)
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 10
		mae += math.Abs(m.Predict([]float64{x}) - target(x))
	}
	mae /= 100
	if mae > 0.4 {
		t.Fatalf("piecewise-linear MAE = %v want < 0.4", mae)
	}
}

func TestBeatsREPTreeOnSmoothLinearData(t *testing.T) {
	// Leaf linear models extrapolate within a region; constant leaves
	// cannot. This is why M5P edges REPTree once sub-1 °C errors are
	// ignored (paper §IV-A).
	rng := rand.New(rand.NewSource(3))
	d := ml.NewDataset("a", "b")
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 50, rng.Float64() * 2}
		d.Add(x, 25+0.3*x[0]+4*x[1]+rng.NormFloat64()*0.05)
	}
	expM, predM, err := ml.CrossValidate(func() ml.Regressor { return New() }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	expT, predT, err := ml.CrossValidate(func() ml.Regressor { return tree.New(1) }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rmseM := ml.RMSE(expM, predM)
	rmseT := ml.RMSE(expT, predT)
	if rmseM >= rmseT {
		t.Fatalf("M5P RMSE %v should beat REPTree %v on smooth linear data", rmseM, rmseT)
	}
}

func TestSmoothingChangesPredictionsNearBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := ml.NewDataset("x")
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 10
		y := 2 * x
		if x > 5 {
			y = 30 - x
		}
		d.Add([]float64{x}, y+rng.NormFloat64()*0.2)
	}
	smoothed := New()
	if err := smoothed.Fit(d); err != nil {
		t.Fatal(err)
	}
	raw := New()
	raw.Unsmoothed = true
	if err := raw.Fit(d); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64() * 10}
		if math.Abs(smoothed.Predict(x)-raw.Predict(x)) > 1e-9 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("smoothing never changed a prediction on a multi-leaf tree")
	}
}

func TestConstantTarget(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 40; i++ {
		d.Add([]float64{float64(i)}, 9)
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{20}); math.Abs(p-9) > 1e-6 {
		t.Fatalf("Predict = %v want 9", p)
	}
}

func TestTinyDataset(t *testing.T) {
	d := ml.NewDataset("x")
	d.Add([]float64{1}, 2)
	d.Add([]float64{2}, 4)
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := m.Predict([]float64{1.5})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("tiny dataset produced %v", p)
	}
}

func TestCollinearFeatures(t *testing.T) {
	d := ml.NewDataset("a", "b")
	for i := 0; i < 100; i++ {
		v := float64(i) / 10
		d.Add([]float64{v, v}, 5*v)
	}
	m := New()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{5, 5}); math.Abs(p-25) > 1 {
		t.Fatalf("collinear prediction = %v want ≈25", p)
	}
}

func TestEmptyDataset(t *testing.T) {
	if err := New().Fit(ml.NewDataset("x")); err == nil {
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
	if New().Name() != "M5P" {
		t.Fatalf("Name = %q", New().Name())
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := ml.NewDataset("a")
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		d.Add([]float64{x}, x*x)
	}
	a, b := New(), New()
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 2}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("M5P is not deterministic")
		}
	}
}

// NumNodes returns the node count of the fitted tree.
func (m *Model) NumNodes() int { return countNodes(m.root) }

func countNodes(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf {
		return 1
	}
	return 1 + countNodes(nd.left) + countNodes(nd.right)
}
