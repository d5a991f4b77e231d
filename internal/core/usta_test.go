package core

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sensors"
	"repro/internal/workload"
)

// trainedPredictor caches a predictor across the USTA tests (training is
// the expensive part).
var cachedPredictor *Predictor

func predictor(t *testing.T) *Predictor {
	t.Helper()
	if cachedPredictor != nil {
		return cachedPredictor
	}
	cfg := device.DefaultConfig()
	loads := []workload.Workload{
		workload.Skype(11),
		workload.AnTuTuTester(12),
		workload.StaircaseRamp(13, 0.05, 0.95, 8, 45),
		workload.Idle(240),
	}
	// Full-length runs: the corpus must reach the hot regime, or the tree
	// saturates below the true temperatures and USTA never wakes up.
	corpus := mustCollect(t, cfg, loads)
	p, err := Train(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedPredictor = p
	return p
}

func TestUSTAName(t *testing.T) {
	u := NewUSTA(nil, 37)
	if !strings.Contains(u.Name(), "37.0") {
		t.Fatalf("Name = %q", u.Name())
	}
	if u.PeriodSec() != 3 {
		t.Fatalf("PeriodSec = %v want 3", u.PeriodSec())
	}
	u.Period = -1
	if u.PeriodSec() != 3 {
		t.Fatal("non-positive period must default to 3")
	}
}

func TestUSTAReducesPeakSkinOnHotWorkload(t *testing.T) {
	// The paper's central claim (Figure 4 / Table 1): on a workload whose
	// baseline peak approaches or exceeds the limit, USTA cuts the peak
	// skin temperature at a modest frequency cost.
	pred := predictor(t)
	w := workload.Skype(21)

	base := device.MustNew(device.DefaultConfig(), nil).Run(w, 900)

	phone := device.MustNew(device.DefaultConfig(), nil)
	u := NewUSTA(pred, 37.0)
	phone.SetController(u)
	usta := phone.Run(w, 900)

	if usta.MaxSkinC >= base.MaxSkinC-0.5 {
		t.Fatalf("USTA peak %.2f did not improve on baseline %.2f", usta.MaxSkinC, base.MaxSkinC)
	}
	if usta.AvgFreqMHz >= base.AvgFreqMHz {
		t.Fatalf("USTA avg freq %.0f should be below baseline %.0f", usta.AvgFreqMHz, base.AvgFreqMHz)
	}
	if u.Activations == 0 {
		t.Fatal("USTA never activated on a hot workload")
	}
}

func TestUSTAHighLimitNeverActs(t *testing.T) {
	// Users with very high thresholds (like participant g at 42.8 °C on a
	// workload peaking in the 30s) must see stock behaviour.
	pred := predictor(t)
	w := workload.YouTube(22)

	base := device.MustNew(device.DefaultConfig(), nil).Run(w, 600)

	phone := device.MustNew(device.DefaultConfig(), nil)
	u := NewUSTA(pred, 42.8)
	phone.SetController(u)
	usta := phone.Run(w, 600)

	if u.Activations != 0 {
		t.Fatalf("USTA activated %d times on a cool workload with a 42.8 °C limit", u.Activations)
	}
	if usta.AvgFreqMHz != base.AvgFreqMHz {
		t.Fatalf("inactive USTA changed behaviour: %.1f vs %.1f MHz", usta.AvgFreqMHz, base.AvgFreqMHz)
	}
}

func TestUSTALowLimitPinsMinimumFrequency(t *testing.T) {
	// A limit far below what even an idle-ish phone reaches forces the
	// minimum level almost immediately.
	pred := predictor(t)
	phone := device.MustNew(device.DefaultConfig(), nil)
	u := NewUSTA(pred, 20.0) // below ambient+rise: always violated
	phone.SetController(u)
	res := phone.Run(workload.Skype(23), 300)
	// After the first activation (t≈3 s) the CPU must sit at 384 MHz.
	freqs := res.Trace.Lookup("freq_mhz").Values
	for i, f := range freqs {
		if res.Trace.TimeSec[i] > 6 && f > 384+1 {
			t.Fatalf("min-freq pin violated at t=%.0f: %.0f MHz", res.Trace.TimeSec[i], f)
		}
	}
}

func TestUSTAInvocationCadence(t *testing.T) {
	pred := predictor(t)
	phone := device.MustNew(device.DefaultConfig(), nil)
	u := NewUSTA(pred, 37)
	phone.SetController(u)
	phone.Run(workload.Skype(24), 60)
	// 60 s at a 3 s period ≈ 20 invocations (first needs a log record).
	if u.Invocations < 17 || u.Invocations > 21 {
		t.Fatalf("USTA ran %d times in 60 s, want ≈20", u.Invocations)
	}
}

func TestUSTAResetClearsCounters(t *testing.T) {
	pred := predictor(t)
	u := NewUSTA(pred, 30)
	phone := device.MustNew(device.DefaultConfig(), nil)
	phone.SetController(u)
	phone.Run(workload.Skype(25), 60)
	if u.Invocations == 0 {
		t.Fatal("expected invocations")
	}
	u.Reset()
	if u.Invocations != 0 || u.Activations != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestUSTAActWithoutRecordIsNoop(t *testing.T) {
	pred := predictor(t)
	u := NewUSTA(pred, 37)
	phone := device.MustNew(device.DefaultConfig(), nil)
	u.Act(phone) // no log record yet
	if u.Invocations != 0 {
		t.Fatal("Act without a record must not count as an invocation")
	}
	if phone.CPU().MaxLevel() != phone.CPU().NumLevels()-1 {
		t.Fatal("Act without a record must not clamp")
	}
}

func TestUSTAScreenLimitExtensionClampsHarder(t *testing.T) {
	pred := predictor(t)
	w := workload.Skype(26)

	skinOnly := device.MustNew(device.DefaultConfig(), nil)
	u1 := NewUSTA(pred, 40)
	skinOnly.SetController(u1)
	r1 := skinOnly.Run(w, 900)

	both := device.MustNew(device.DefaultConfig(), nil)
	u2 := NewUSTA(pred, 40)
	u2.ScreenLimitC = 33 // binding well before the 40 °C skin limit
	both.SetController(u2)
	r2 := both.Run(w, 900)

	if r2.AvgFreqMHz >= r1.AvgFreqMHz {
		t.Fatalf("screen limit should clamp harder: %.0f vs %.0f MHz", r2.AvgFreqMHz, r1.AvgFreqMHz)
	}
	if r2.MaxScreenC >= r1.MaxScreenC {
		t.Fatalf("screen limit should lower screen peak: %.2f vs %.2f", r2.MaxScreenC, r1.MaxScreenC)
	}
}

func TestUSTAPolicyAblationOrdering(t *testing.T) {
	// The hard policy sacrifices the most frequency; the ladder sits in
	// between free-running and hard clamping.
	pred := predictor(t)
	w := workload.Skype(27)
	run := func(pol Policy) *device.RunResult {
		phone := device.MustNew(device.DefaultConfig(), nil)
		u := NewUSTA(pred, 37)
		u.Policy = pol
		phone.SetController(u)
		return phone.Run(w, 900)
	}
	ladder := run(nil) // default LadderPolicy
	hard := run(HardPolicy)
	base := device.MustNew(device.DefaultConfig(), nil).Run(w, 900)

	if hard.AvgFreqMHz >= ladder.AvgFreqMHz {
		t.Fatalf("hard policy should cost more frequency: %.0f vs ladder %.0f", hard.AvgFreqMHz, ladder.AvgFreqMHz)
	}
	if ladder.AvgFreqMHz >= base.AvgFreqMHz {
		t.Fatalf("ladder should cost some frequency: %.0f vs base %.0f", ladder.AvgFreqMHz, base.AvgFreqMHz)
	}
	if hard.MaxSkinC > ladder.MaxSkinC+0.3 {
		t.Fatalf("hard policy should not run hotter: %.2f vs %.2f", hard.MaxSkinC, ladder.MaxSkinC)
	}
}

func TestUSTAWithStalePredictorStillBounded(t *testing.T) {
	// Failure injection: a predictor trained on a tiny, unrepresentative
	// corpus (idle only) misestimates — USTA must still keep the clamp
	// inside the valid level range and never crash.
	cfg := device.DefaultConfig()
	corpus := mustCollect(t, cfg, []workload.Workload{workload.Idle(300)})
	bad, err := Train(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	phone := device.MustNew(device.DefaultConfig(), nil)
	u := NewUSTA(bad, 37)
	phone.SetController(u)
	res := phone.Run(workload.Skype(28), 300)
	if res.MaxSkinC <= 0 {
		t.Fatal("run produced no data")
	}
	lvl := phone.CPU().MaxLevel()
	if lvl < 0 || lvl >= phone.CPU().NumLevels() {
		t.Fatalf("clamp out of range: %d", lvl)
	}
}

func TestCollectCorpusSeparatesSeeds(t *testing.T) {
	cfg := device.DefaultConfig()
	a := mustCollect(t, cfg, []workload.Workload{workload.Idle(120)})
	b := mustCollect(t, cfg, []workload.Workload{workload.Idle(120)})
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("corpus sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CollectCorpusContext is not deterministic")
		}
	}
}

func TestPredictorMatchesRecordInterface(t *testing.T) {
	pred := predictor(t)
	rec := sensors.Record{CPUTempC: 60, BatteryTempC: 34, Util: 0.8, FreqMHz: 1350}
	s := pred.PredictSkin(rec)
	if s < 20 || s > 60 {
		t.Fatalf("implausible skin prediction %v", s)
	}
	sc := pred.PredictScreen(rec)
	if sc < 20 || sc > 60 {
		t.Fatalf("implausible screen prediction %v", sc)
	}
}
