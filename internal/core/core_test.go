package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/sensors"
	"repro/internal/workload"
)

// mustCollect collects a full-length training corpus, failing the test on
// a configuration error.
func mustCollect(t *testing.T, cfg device.Config, loads []workload.Workload) []sensors.Record {
	t.Helper()
	corpus, err := CollectCorpusContext(context.Background(), cfg, loads, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// testCorpus builds a small but diverse training corpus quickly.
func testCorpus(t *testing.T) []sensors.Record {
	t.Helper()
	cfg := device.DefaultConfig()
	loads := []workload.Workload{
		workload.Skype(1),
		workload.Truncated{W: workload.AnTuTuCPU(2), Dur: 600},
		workload.StaircaseRamp(3, 0.05, 0.95, 8, 45),
		workload.Idle(240),
	}
	// Full-length Skype matters: the corpus must cover the hot regime
	// (skin ≈ 40 °C) or tree predictions saturate below reality.
	corpus := mustCollect(t, cfg, loads)
	if len(corpus) < 1000 {
		t.Fatalf("corpus too small: %d records", len(corpus))
	}
	return corpus
}

func TestDatasetFromRecords(t *testing.T) {
	recs := []sensors.Record{
		{CPUTempC: 50, BatteryTempC: 30, Util: 0.5, FreqMHz: 1026, SkinTempC: 36, ScreenTempC: 34},
		{CPUTempC: 60, BatteryTempC: 33, Util: 0.9, FreqMHz: 1512, SkinTempC: 40, ScreenTempC: 37},
	}
	skin := DatasetFromRecords(recs, SkinTarget)
	screen := DatasetFromRecords(recs, ScreenTarget)
	if skin.Len() != 2 || screen.Len() != 2 {
		t.Fatal("dataset sizes wrong")
	}
	if skin.Y[0] != 36 || screen.Y[0] != 34 {
		t.Fatal("targets mis-assigned")
	}
	if skin.NumAttrs() != 4 {
		t.Fatalf("NumAttrs = %d want 4", skin.NumAttrs())
	}
	if skin.X[1][3] != 1512 {
		t.Fatal("feature order broken")
	}
}

func TestTargetString(t *testing.T) {
	if SkinTarget.String() != "skin" || ScreenTarget.String() != "screen" {
		t.Fatal("Target.String broken")
	}
}

func TestTrainRejectsEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, nil); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestTrainedPredictorIsAccurate(t *testing.T) {
	// The headline claim: the predictor estimates skin temperature from
	// on-device observables with ≈1 % error (99.05 % accuracy). Verify the
	// default REPTree achieves a low cross-validated error rate on the
	// simulated corpus.
	corpus := testCorpus(t)
	d := DatasetFromRecords(corpus, SkinTarget)
	exp, pred, err := ml.CrossValidate(func() ml.Regressor {
		p, terr := Train(corpus, nil)
		if terr != nil {
			t.Fatal(terr)
		}
		return p.SkinModel
	}, d, 10, 1)
	_ = exp
	_ = pred
	if err != nil {
		t.Fatal(err)
	}
	rate := ml.ErrorRate(exp, pred)
	if rate > 3.0 {
		t.Fatalf("skin CV error rate = %.2f%%, want ≈1%%", rate)
	}
}

func TestPredictorEndToEnd(t *testing.T) {
	corpus := testCorpus(t)
	p, err := Train(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample sanity: average absolute error well below a degree.
	var maeSkin, maeScreen float64
	for _, r := range corpus {
		maeSkin += math.Abs(p.PredictSkin(r) - r.SkinTempC)
		maeScreen += math.Abs(p.PredictScreen(r) - r.ScreenTempC)
	}
	maeSkin /= float64(len(corpus))
	maeScreen /= float64(len(corpus))
	if maeSkin > 0.5 {
		t.Fatalf("in-sample skin MAE = %.3f °C", maeSkin)
	}
	if maeScreen > 0.5 {
		t.Fatalf("in-sample screen MAE = %.3f °C", maeScreen)
	}
}

func TestTrainWithCustomFactory(t *testing.T) {
	corpus := testCorpus(t)
	p, err := Train(corpus, func() ml.Regressor { return linreg.New() })
	if err != nil {
		t.Fatal(err)
	}
	if p.SkinModel.Name() != "LinearRegression" {
		t.Fatalf("factory ignored: %s", p.SkinModel.Name())
	}
}

func TestLadderPolicyBoundaries(t *testing.T) {
	top := 11
	cases := []struct {
		diff float64
		want int
	}{
		{5, 11}, {2.01, 11}, // free
		{2.0, 10}, {1.5, 10}, {1.01, 10}, // one level down
		{1.0, 9}, {0.75, 9}, {0.51, 9}, // two levels down
		{0.5, 0}, {0.2, 0}, {0, 0}, {-3, 0}, // minimum
	}
	for _, tc := range cases {
		if got := LadderPolicy(tc.diff, top); got != tc.want {
			t.Fatalf("LadderPolicy(%v) = %d want %d", tc.diff, got, tc.want)
		}
	}
}

func TestMarginLadderGeneralizesLadderPolicy(t *testing.T) {
	// With margin 2, MarginLadder must agree with LadderPolicy everywhere.
	std := MarginLadder(2)
	for d := -1.0; d <= 4.0; d += 0.05 {
		if std(d, 11) != LadderPolicy(d, 11) {
			t.Fatalf("MarginLadder(2) diverges from LadderPolicy at diff %.2f", d)
		}
	}
	// A wider margin activates earlier (more conservative).
	wide := MarginLadder(4)
	if wide(3, 11) >= 11 {
		t.Fatal("margin-4 ladder should already clamp at diff=3")
	}
	if LadderPolicy(3, 11) != 11 {
		t.Fatal("margin-2 ladder should be free at diff=3")
	}
	// Non-positive margins fall back to the paper default.
	if MarginLadder(0)(1.5, 11) != LadderPolicy(1.5, 11) {
		t.Fatal("MarginLadder(0) should default to margin 2")
	}
}

func TestHardPolicy(t *testing.T) {
	if HardPolicy(2.5, 11) != 11 || HardPolicy(1.9, 11) != 0 {
		t.Fatal("HardPolicy thresholds broken")
	}
}

func TestProportionalPolicy(t *testing.T) {
	if ProportionalPolicy(2, 11) != 11 || ProportionalPolicy(3, 11) != 11 {
		t.Fatal("proportional should be free above the margin")
	}
	if ProportionalPolicy(0, 11) != 0 || ProportionalPolicy(-1, 11) != 0 {
		t.Fatal("proportional should clamp to 0 at/below zero margin")
	}
	mid := ProportionalPolicy(1, 11)
	if mid <= 0 || mid >= 11 {
		t.Fatalf("proportional mid clamp = %d want strictly between", mid)
	}
}

// Property: every policy is monotone in the margin and in range.
func TestPolicyMonotoneProperty(t *testing.T) {
	policies := []Policy{LadderPolicy, HardPolicy, ProportionalPolicy}
	f := func(a, b float64, which uint8) bool {
		pol := policies[int(which)%len(policies)]
		d1 := math.Mod(a, 6)
		d2 := math.Mod(b, 6)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		c1 := pol(d1, 11)
		c2 := pol(d2, 11)
		return c1 <= c2 && c1 >= 0 && c2 <= 11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
