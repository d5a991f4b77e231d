package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

func TestFitsPiecewiseConstant(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		y := 10.0
		if x > 0.5 {
			y = 20
		}
		d.Add([]float64{x}, y)
	}
	m := New(1)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.25}); math.Abs(p-10) > 0.01 {
		t.Fatalf("Predict(0.25) = %v want 10", p)
	}
	if p := m.Predict([]float64{0.75}); math.Abs(p-20) > 0.01 {
		t.Fatalf("Predict(0.75) = %v want 20", p)
	}
}

func TestMultiDimensionalSplit(t *testing.T) {
	// y depends only on the second attribute; the tree must find it.
	rng := rand.New(rand.NewSource(1))
	d := ml.NewDataset("noise", "signal")
	for i := 0; i < 400; i++ {
		noise := rng.Float64()
		sig := rng.Float64()
		y := 5.0
		if sig > 0.6 {
			y = 15
		}
		d.Add([]float64{noise, sig}, y)
	}
	m := New(2)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.1, 0.9}); math.Abs(p-15) > 1 {
		t.Fatalf("Predict = %v want ≈15", p)
	}
	if p := m.Predict([]float64{0.9, 0.1}); math.Abs(p-5) > 1 {
		t.Fatalf("Predict = %v want ≈5", p)
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := ml.NewDataset("x")
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		d.Add([]float64{x}, 3+rng.NormFloat64()) // pure noise around 3
	}
	pruned := New(3)
	if err := pruned.Fit(d); err != nil {
		t.Fatal(err)
	}
	unpruned := New(3)
	unpruned.PruneFolds = 1 // disables pruning
	if err := unpruned.Fit(d); err != nil {
		t.Fatal(err)
	}
	if pruned.NumNodes() >= unpruned.NumNodes() {
		t.Fatalf("pruning did not shrink the tree: %d vs %d nodes",
			pruned.NumNodes(), unpruned.NumNodes())
	}
	// On pure noise the pruned tree should be close to a stump.
	if pruned.NumNodes() > unpruned.NumNodes()/4 {
		t.Fatalf("pruned tree still large on pure noise: %d nodes (unpruned %d)",
			pruned.NumNodes(), unpruned.NumNodes())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := ml.NewDataset("x")
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		d.Add([]float64{x}, math.Sin(10*x))
	}
	m := New(4)
	m.MaxDepth = 3
	m.PruneFolds = 1
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Depth(); got > 4 { // depth counts nodes on the path, so limit+1
		t.Fatalf("Depth = %d exceeds MaxDepth", got)
	}
}

func TestMinInstancesRespected(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 20; i++ {
		d.Add([]float64{float64(i)}, float64(i%2)*10)
	}
	m := New(5)
	m.MinInstances = 10
	m.PruneFolds = 1
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() > 3 {
		t.Fatalf("MinInstances=10 on 20 rows allows at most one split, got %d nodes", m.NumNodes())
	}
}

func TestSingleInstance(t *testing.T) {
	d := ml.NewDataset("x")
	d.Add([]float64{1}, 5)
	m := New(6)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{99}); p != 5 {
		t.Fatalf("Predict = %v want 5", p)
	}
}

func TestConstantTarget(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 50; i++ {
		d.Add([]float64{float64(i)}, 7)
	}
	m := New(7)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("constant target should give a stump, got %d nodes", m.NumNodes())
	}
	if p := m.Predict([]float64{25}); p != 7 {
		t.Fatalf("Predict = %v want 7", p)
	}
}

func TestDuplicateFeatureValuesNoSplit(t *testing.T) {
	d := ml.NewDataset("x")
	for i := 0; i < 50; i++ {
		d.Add([]float64{1}, float64(i)) // identical features, varied target
	}
	m := New(8)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("identical features cannot be split, got %d nodes", m.NumNodes())
	}
}

func TestEmptyDataset(t *testing.T) {
	if err := New(1).Fit(ml.NewDataset("x")); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Predict([]float64{1})
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := ml.NewDataset("a", "b")
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Add(x, x[0]*10+rng.NormFloat64())
	}
	a, b := New(5), New(5)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed trees diverge")
		}
	}
}

func TestName(t *testing.T) {
	if New(1).Name() != "REPTree" {
		t.Fatalf("Name = %q", New(1).Name())
	}
}

// Property: predictions always lie within the training target range.
func TestPredictionRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := ml.NewDataset("a", "b")
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 100, rng.Float64() * 10}
		y := x[0] - 3*x[1] + rng.NormFloat64()*5
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
		d.Add(x, y)
	}
	m := New(11)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := []float64{math.Mod(math.Abs(a), 200) - 50, math.Mod(math.Abs(b), 20) - 5}
		p := m.Predict(x)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a deeper tree (no pruning) never increases training error on
// clean (noise-free) data versus a pruned one.
func TestTrainingErrorImprovesWithGrowthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := ml.NewDataset("x")
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 10
		d.Add([]float64{x}, math.Floor(x)) // staircase, perfectly learnable
	}
	full := New(12)
	full.PruneFolds = 1
	if err := full.Fit(d); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := range d.X {
		mae += math.Abs(full.Predict(d.X[i]) - d.Y[i])
	}
	mae /= float64(d.Len())
	if mae > 0.01 {
		t.Fatalf("unpruned tree should nail a staircase: MAE = %v", mae)
	}
}

func TestAccuracyBeatsLinearOnStepData(t *testing.T) {
	// A step function is trivially captured by a tree but poorly by a line —
	// the qualitative reason REPTree/M5P beat LinearRegression in Figure 3.
	rng := rand.New(rand.NewSource(12))
	d := ml.NewDataset("x")
	for i := 0; i < 600; i++ {
		x := rng.Float64()
		y := 30.0
		if x > 0.3 {
			y = 36
		}
		if x > 0.7 {
			y = 43
		}
		d.Add([]float64{x}, y+rng.NormFloat64()*0.1)
	}
	expT, predT, err := ml.CrossValidate(func() ml.Regressor { return New(13) }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := ml.RMSE(expT, predT); rmse > 0.5 {
		t.Fatalf("tree RMSE on step data = %v want < 0.5", rmse)
	}
}

// NumNodes returns the node count of the fitted tree (0 before Fit).
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

// Depth returns the depth of the fitted tree (a lone leaf has depth 1).
func (m *Model) Depth() int { return depthOf(m.root) }

func depthOf(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf {
		return 1
	}
	l, r := depthOf(nd.left), depthOf(nd.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}
