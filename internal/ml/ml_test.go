package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeLinear(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset("a", "b")
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		d.Add(x, 5+2*x[0]-x[1])
	}
	return d
}

// meanModel is a trivial Regressor for framework tests.
type meanModel struct{ mean float64 }

func (m *meanModel) Name() string { return "mean" }
func (m *meanModel) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	var s float64
	for _, y := range d.Y {
		s += y
	}
	m.mean = s / float64(d.Len())
	return nil
}
func (m *meanModel) Predict([]float64) float64 { return m.mean }

func TestDatasetAddLen(t *testing.T) {
	d := NewDataset("x")
	d.Add([]float64{1}, 2)
	d.Add([]float64{3}, 4)
	if d.Len() != 2 || d.NumAttrs() != 1 {
		t.Fatalf("Len=%d NumAttrs=%d", d.Len(), d.NumAttrs())
	}
}

func TestDatasetAddPanicsOnWidthMismatch(t *testing.T) {
	d := NewDataset("x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Add([]float64{1}, 2)
}

func TestSubset(t *testing.T) {
	d := makeLinear(10, 1)
	s := d.Subset([]int{0, 5, 9})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Y[1] != d.Y[5] {
		t.Fatal("Subset did not select the right instances")
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	d := makeLinear(50, 2)
	s := d.Shuffled(7)
	if s.Len() != d.Len() {
		t.Fatalf("Len changed: %d", s.Len())
	}
	var sumOrig, sumShuf float64
	for i := range d.Y {
		sumOrig += d.Y[i]
		sumShuf += s.Y[i]
	}
	if math.Abs(sumOrig-sumShuf) > 1e-9 {
		t.Fatal("Shuffled lost or duplicated instances")
	}
	// Same seed reproduces the permutation.
	s2 := d.Shuffled(7)
	for i := range s.Y {
		if s.Y[i] != s2.Y[i] {
			t.Fatal("Shuffled not deterministic")
		}
	}
}

func TestSplit(t *testing.T) {
	d := makeLinear(10, 3)
	head, tail := d.Split(0.7)
	if head.Len() != 7 || tail.Len() != 3 {
		t.Fatalf("split = %d/%d want 7/3", head.Len(), tail.Len())
	}
	head, tail = d.Split(0)
	if head.Len() != 0 || tail.Len() != 10 {
		t.Fatalf("split(0) = %d/%d", head.Len(), tail.Len())
	}
	head, tail = d.Split(1.5)
	if head.Len() != 10 || tail.Len() != 0 {
		t.Fatalf("split(1.5) = %d/%d", head.Len(), tail.Len())
	}
}

func TestTargetStats(t *testing.T) {
	d := NewDataset("x")
	for _, y := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Add([]float64{0}, y)
	}
	mean, std := d.TargetStats()
	if mean != 5 || std != 2 {
		t.Fatalf("stats = %v,%v want 5,2", mean, std)
	}
}

func TestCrossValidateCoversEveryInstanceOnce(t *testing.T) {
	d := makeLinear(101, 4)
	exp, pred, err := CrossValidate(func() Regressor { return &meanModel{} }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != d.Len() || len(pred) != d.Len() {
		t.Fatalf("CV returned %d/%d predictions for %d instances", len(exp), len(pred), d.Len())
	}
	// The multiset of expected values must equal the dataset targets.
	var sumD, sumE float64
	for i := range d.Y {
		sumD += d.Y[i]
		sumE += exp[i]
	}
	if math.Abs(sumD-sumE) > 1e-6 {
		t.Fatal("CV expected values do not cover the dataset")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	d := makeLinear(10, 5)
	if _, _, err := CrossValidate(func() Regressor { return &meanModel{} }, d, 1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	empty := NewDataset("x")
	if _, _, err := CrossValidate(func() Regressor { return &meanModel{} }, empty, 10, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestCrossValidateKLargerThanN(t *testing.T) {
	d := makeLinear(5, 6)
	exp, _, err := CrossValidate(func() Regressor { return &meanModel{} }, d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != 5 {
		t.Fatalf("leave-one-out fallback returned %d predictions", len(exp))
	}
}

func TestErrorRateEq1(t *testing.T) {
	// |40-39|/40*100 = 2.5 and |30-33|/30*100 = 10 -> mean 6.25.
	got := ErrorRate([]float64{40, 30}, []float64{39, 33})
	if math.Abs(got-6.25) > 1e-9 {
		t.Fatalf("ErrorRate = %v want 6.25", got)
	}
}

func TestErrorRatePerfect(t *testing.T) {
	if got := ErrorRate([]float64{40, 30}, []float64{40, 30}); got != 0 {
		t.Fatalf("perfect ErrorRate = %v", got)
	}
}

func TestErrorRateSkipsZeroExpected(t *testing.T) {
	got := ErrorRate([]float64{0, 40}, []float64{5, 38})
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("ErrorRate = %v want 5 (zero-expected skipped)", got)
	}
}

func TestGatedErrorRateZeroesSmallDiffs(t *testing.T) {
	// First error 0.5 °C < 1 gate -> 0; second 2 °C -> 2/40 = 5%.
	got := GatedErrorRate([]float64{40, 40}, []float64{39.5, 38}, 1.0)
	if math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("GatedErrorRate = %v want 2.5", got)
	}
	// Gate of 0 reduces to plain ErrorRate.
	a := ErrorRate([]float64{40, 40}, []float64{39.5, 38})
	b := GatedErrorRate([]float64{40, 40}, []float64{39.5, 38}, 0)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("gate 0 mismatch: %v vs %v", a, b)
	}
}

func TestGatedNeverExceedsUngated(t *testing.T) {
	exp := []float64{35, 36, 37, 40, 42}
	pred := []float64{34.2, 36.8, 36.9, 41.5, 42.05}
	if GatedErrorRate(exp, pred, 1) > ErrorRate(exp, pred)+1e-12 {
		t.Fatal("gated error rate must never exceed the plain error rate")
	}
}

func TestMAERMSE(t *testing.T) {
	exp := []float64{1, 2, 3}
	pred := []float64{2, 2, 5}
	if got := MAE(exp, pred); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MAE = %v want 1", got)
	}
	want := math.Sqrt((1.0 + 0 + 4) / 3)
	if got := RMSE(exp, pred); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v want %v", got, want)
	}
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 {
		t.Fatal("empty metrics should be 0")
	}
}

func TestR2(t *testing.T) {
	exp := []float64{1, 2, 3, 4}
	if got := R2(exp, exp); got != 1 {
		t.Fatalf("perfect R2 = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(exp, mean); math.Abs(got) > 1e-12 {
		t.Fatalf("mean-predictor R2 = %v want 0", got)
	}
}

func TestR2DegenerateTarget(t *testing.T) {
	exp := []float64{5, 5, 5}
	if got := R2(exp, []float64{5, 5, 5}); got != 1 {
		t.Fatalf("constant-perfect R2 = %v", got)
	}
	if got := R2(exp, []float64{4, 5, 6}); got != 0 {
		t.Fatalf("constant-imperfect R2 = %v", got)
	}
}

// Property: RMSE >= MAE always.
func TestRMSEDominatesMAEProperty(t *testing.T) {
	f := func(pairsRaw []float64) bool {
		if len(pairsRaw) < 2 {
			return true
		}
		n := len(pairsRaw) / 2
		exp := make([]float64, 0, n)
		pred := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			e, p := pairsRaw[2*i], pairsRaw[2*i+1]
			if math.IsNaN(e) || math.IsInf(e, 0) || math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			if math.Abs(e) > 1e8 || math.Abs(p) > 1e8 {
				continue
			}
			exp = append(exp, e)
			pred = append(pred, p)
		}
		if len(exp) == 0 {
			return true
		}
		return RMSE(exp, pred) >= MAE(exp, pred)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: GatedErrorRate is antitone in the gate.
func TestGatedAntitoneProperty(t *testing.T) {
	exp := []float64{35, 36, 37, 40, 42, 33, 39}
	pred := []float64{34.2, 36.8, 36.9, 41.5, 42.05, 35.1, 38.2}
	f := func(g1, g2 float64) bool {
		a, b := math.Abs(g1), math.Abs(g2)
		if a > b {
			a, b = b, a
		}
		return GatedErrorRate(exp, pred, a) >= GatedErrorRate(exp, pred, b)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Shuffled returns a copy of the dataset with instances permuted by the
// seeded RNG.
func (d *Dataset) Shuffled(seed int64) *Dataset {
	perm := rand.New(rand.NewSource(seed)).Perm(d.Len())
	return d.Subset(perm)
}

// Split partitions the dataset into a head of ceil(frac·n) instances and
// the remaining tail, preserving order. Use after Shuffled for a random
// split.
func (d *Dataset) Split(frac float64) (head, tail *Dataset) {
	n := d.Len()
	k := int(math.Ceil(frac * float64(n)))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	idxHead := make([]int, k)
	for i := range idxHead {
		idxHead[i] = i
	}
	idxTail := make([]int, n-k)
	for i := range idxTail {
		idxTail[i] = k + i
	}
	return d.Subset(idxHead), d.Subset(idxTail)
}
