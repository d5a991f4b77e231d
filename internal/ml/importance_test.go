package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// linearModel is a fixed linear predictor for importance tests.
type linearModel struct{ coef []float64 }

func (m *linearModel) Name() string         { return "fixed-linear" }
func (m *linearModel) Fit(d *Dataset) error { return nil }
func (m *linearModel) Predict(x []float64) float64 {
	var s float64
	for i, c := range m.coef {
		s += c * x[i]
	}
	return s
}

func TestPermutationImportanceRanksSignalOverNoise(t *testing.T) {
	// y depends strongly on feature 0, weakly on feature 1, not at all on
	// feature 2; a perfect model's permutation scores must rank them so.
	rng := rand.New(rand.NewSource(1))
	d := NewDataset("strong", "weak", "noise")
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		d.Add(x, 5*x[0]+0.5*x[1])
	}
	m := &linearModel{coef: []float64{5, 0.5, 0}}
	imp, err := PermutationImportance(m, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 3 {
		t.Fatalf("importance count = %d", len(imp))
	}
	if !(imp[0].Increase > imp[1].Increase && imp[1].Increase > imp[2].Increase) {
		t.Fatalf("ranking wrong: %+v", imp)
	}
	if imp[2].Increase > 1e-9 {
		t.Fatalf("irrelevant feature has importance %v", imp[2].Increase)
	}
	if imp[0].BaseMAE > 1e-9 {
		t.Fatalf("perfect model base MAE = %v", imp[0].BaseMAE)
	}
}

func TestPermutationImportanceEmptyDataset(t *testing.T) {
	if _, err := PermutationImportance(&linearModel{coef: []float64{1}}, NewDataset("x"), 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestImportanceString(t *testing.T) {
	im := Importance{Attr: "battery_temp_c", BaseMAE: 0.1, PermMAE: 0.9, Increase: 0.8}
	if s := im.String(); s == "" || s[0] != 'b' {
		t.Fatalf("String = %q", s)
	}
}

func TestPermutationImportanceDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDataset("a", "b")
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Add(x, x[0])
	}
	m := &linearModel{coef: []float64{1, 0}}
	i1, err := PermutationImportance(m, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := PermutationImportance(m, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	for k := range i1 {
		if i1[k].PermMAE != i2[k].PermMAE {
			t.Fatal("same-seed importance diverged")
		}
	}
}

// String renders the score.
func (im Importance) String() string {
	return fmt.Sprintf("%s: +%.3f (%.3f -> %.3f MAE)", im.Attr, im.Increase, im.BaseMAE, im.PermMAE)
}
