package device

import (
	"context"
	"math"
	"testing"

	"repro/internal/workload"
)

// eventDiffWorkloads are the differential corpus: jittered phone
// benchmarks (slot boundaries every second), bursty synthetics
// (sub-second burst edges), touch-flipping gameplay, charging (canonical
// segments), idle, and the multi-hour daily mix.
func eventDiffWorkloads() map[string]workload.Workload {
	return map[string]workload.Workload{
		"skype":      workload.Skype(7),
		"youtube":    workload.YouTube(3),
		"antutu":     workload.AnTuTuFull(5),
		"game-touch": workload.Game(9),
		"charging":   workload.Charging(2),
		"idle":       workload.Idle(120),
		"square":     workload.SquareWave(1, 10, 0.3, 0.95, 0.05, 180),
		"daily":      workload.Truncated{W: workload.DailyMix(4), Dur: 600},
	}
}

// runOracle runs the plain fixed-tick loop (RunContext).
func runOracle(t *testing.T, cfg Config, w workload.Workload, dur float64, ctrl Controller) *RunResult {
	t.Helper()
	p := MustNew(cfg, nil)
	if ctrl != nil {
		p.SetController(ctrl)
	}
	return p.Run(w, dur)
}

// runEvent runs the event engine in the given mode.
func runEvent(t *testing.T, cfg Config, w workload.Workload, dur float64, ctrl Controller, mode eventMode) *RunResult {
	t.Helper()
	p := MustNew(cfg, nil)
	if ctrl != nil {
		p.SetController(ctrl)
	}
	res, err := p.runEvents(context.Background(), w, dur, mode)
	if err != nil {
		t.Fatalf("event run (mode %d): %v", mode, err)
	}
	return res
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireIdentical asserts full byte-identity: every aggregate, every
// record field, every trace cell.
func requireIdentical(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	requireSchedulingIdentical(t, label, want, got)
	cells := []struct {
		name string
		w, g float64
	}{
		{"MaxSkinC", want.MaxSkinC, got.MaxSkinC},
		{"MaxScreenC", want.MaxScreenC, got.MaxScreenC},
		{"MaxDieC", want.MaxDieC, got.MaxDieC},
		{"MaxBatteryC", want.MaxBatteryC, got.MaxBatteryC},
		{"EnergyJ", want.EnergyJ, got.EnergyJ},
		{"EndSoC", want.EndSoC, got.EndSoC},
	}
	for _, c := range cells {
		if !bitsEq(c.w, c.g) {
			t.Errorf("%s: %s = %v, oracle %v", label, c.name, c.g, c.w)
		}
	}
	if len(want.Records) != len(got.Records) {
		t.Fatalf("%s: %d records, oracle %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if want.Records[i] != got.Records[i] {
			t.Fatalf("%s: record %d diverged:\noracle %+v\nevent  %+v", label, i, want.Records[i], got.Records[i])
		}
	}
	if (want.Trace == nil) != (got.Trace == nil) {
		t.Fatalf("%s: trace presence differs", label)
	}
	if want.Trace != nil {
		if want.Trace.Len() != got.Trace.Len() {
			t.Fatalf("%s: trace rows %d, oracle %d", label, got.Trace.Len(), want.Trace.Len())
		}
		for i := range want.Trace.TimeSec {
			if !bitsEq(want.Trace.TimeSec[i], got.Trace.TimeSec[i]) {
				t.Fatalf("%s: trace time %d diverged", label, i)
			}
		}
		for si, ws := range want.Trace.Series {
			gs := got.Trace.Series[si]
			for i := range ws.Values {
				if !bitsEq(ws.Values[i], gs.Values[i]) {
					t.Fatalf("%s: trace %q row %d = %v, oracle %v", label, ws.Name, i, gs.Values[i], ws.Values[i])
				}
			}
		}
	}
}

// requireSchedulingIdentical asserts the scheduling plane bit for bit:
// frequency/utilization aggregates, work accounting, record timing and
// window averages, and the trace's freq/util/level columns.
func requireSchedulingIdentical(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	cells := []struct {
		name string
		w, g float64
	}{
		{"DurSec", want.DurSec, got.DurSec},
		{"AvgFreqMHz", want.AvgFreqMHz, got.AvgFreqMHz},
		{"AvgUtil", want.AvgUtil, got.AvgUtil},
		{"WorkDone", want.WorkDone, got.WorkDone},
		{"WorkDemanded", want.WorkDemanded, got.WorkDemanded},
		{"StartSoC", want.StartSoC, got.StartSoC},
	}
	for _, c := range cells {
		if !bitsEq(c.w, c.g) {
			t.Errorf("%s: %s = %v, oracle %v", label, c.name, c.g, c.w)
		}
	}
	if len(want.Records) != len(got.Records) {
		t.Fatalf("%s: %d records, oracle %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		if !bitsEq(w.TimeSec, g.TimeSec) || !bitsEq(w.Util, g.Util) || !bitsEq(w.FreqMHz, g.FreqMHz) {
			t.Fatalf("%s: record %d scheduling fields diverged:\noracle t=%v u=%v f=%v\nevent  t=%v u=%v f=%v",
				label, i, w.TimeSec, w.Util, w.FreqMHz, g.TimeSec, g.Util, g.FreqMHz)
		}
	}
	if want.Trace != nil && got.Trace != nil {
		for _, col := range []string{"freq_mhz", "util", "max_level"} {
			ws, gs := want.Trace.Lookup(col), got.Trace.Lookup(col)
			if ws == nil || gs == nil || len(ws.Values) != len(gs.Values) {
				t.Fatalf("%s: trace column %q missing or length mismatch", label, col)
			}
			for i := range ws.Values {
				if !bitsEq(ws.Values[i], gs.Values[i]) {
					t.Fatalf("%s: trace %q row %d = %v, oracle %v", label, col, i, gs.Values[i], ws.Values[i])
				}
			}
		}
	}
}

// requireThermalClose asserts the thermal plane within the held-input
// discretization tolerance.
func requireThermalClose(t *testing.T, label string, want, got *RunResult, tempTol, relTol float64) {
	t.Helper()
	temps := []struct {
		name string
		w, g float64
	}{
		{"MaxSkinC", want.MaxSkinC, got.MaxSkinC},
		{"MaxScreenC", want.MaxScreenC, got.MaxScreenC},
		{"MaxDieC", want.MaxDieC, got.MaxDieC},
		{"MaxBatteryC", want.MaxBatteryC, got.MaxBatteryC},
	}
	for _, c := range temps {
		if d := math.Abs(c.w - c.g); d > tempTol {
			t.Errorf("%s: %s off by %.6f °C (oracle %.4f, event %.4f; tol %g)", label, c.name, d, c.w, c.g, tempTol)
		}
	}
	rel := func(name string, w, g float64) {
		t.Helper()
		denom := math.Abs(w)
		if denom < 1 {
			denom = 1
		}
		if d := math.Abs(w-g) / denom; d > relTol {
			t.Errorf("%s: %s rel err %.2e (oracle %v, event %v; tol %g)", label, name, d, w, g, relTol)
		}
	}
	rel("EnergyJ", want.EnergyJ, got.EnergyJ)
	rel("EndSoC", want.EndSoC, got.EndSoC)
	// Record temperatures pass through the sensors' 0.1 °C quantizer: a
	// millikelvin-level held-input difference that straddles a bin edge
	// reads one full bin apart, so records get one bin of extra slack on
	// top of the true-temperature tolerance.
	recTol := tempTol + 0.1
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		pairs := []struct {
			name string
			a, b float64
		}{
			{"CPUTempC", w.CPUTempC, g.CPUTempC},
			{"BatteryTempC", w.BatteryTempC, g.BatteryTempC},
			{"SkinTempC", w.SkinTempC, g.SkinTempC},
			{"ScreenTempC", w.ScreenTempC, g.ScreenTempC},
		}
		for _, p := range pairs {
			if math.IsNaN(p.a) && math.IsNaN(p.b) {
				continue
			}
			if d := math.Abs(p.a - p.b); d > recTol {
				t.Fatalf("%s: record %d %s off by %.6f °C (tol %g)", label, i, p.name, d, recTol)
			}
		}
	}
}

// TestEventTickByteIdentical pins the event plumbing itself: modeTick
// routes every tick through the canonical path and must be byte-identical
// to the plain loop on every workload, including charging and touch.
func TestEventTickByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	for name, w := range eventDiffWorkloads() {
		oracle := runOracle(t, cfg, w, 0, nil)
		tick := runEvent(t, cfg, w, 0, nil, modeTick)
		requireIdentical(t, name+"/tick", oracle, tick)
	}
}

// TestEventJumpSchedulingExactThermalClose is the headline differential:
// modeJump must replay the scheduling plane bit for bit (governor-driven
// runs read only utilization) while the thermal plane stays within the
// held-input discretization tolerance.
func TestEventJumpSchedulingExactThermalClose(t *testing.T) {
	cfg := DefaultConfig()
	for name, w := range eventDiffWorkloads() {
		oracle := runOracle(t, cfg, w, 0, nil)
		jump := runEvent(t, cfg, w, 0, nil, modeJump)
		requireSchedulingIdentical(t, name+"/jump", oracle, jump)
		requireThermalClose(t, name+"/jump", oracle, jump, 0.05, 2e-3)
	}
}

// TestEventJumpMatchesEventOracle pins the ladder against the decomposed
// per-tick oracle: identical held-input segmentation, so the only
// difference is floating-point summation order inside the physics.
func TestEventJumpMatchesEventOracle(t *testing.T) {
	cfg := DefaultConfig()
	for name, w := range eventDiffWorkloads() {
		oracle := runEvent(t, cfg, w, 0, nil, modeOracle)
		jump := runEvent(t, cfg, w, 0, nil, modeJump)
		requireSchedulingIdentical(t, name+"/jump-vs-oracle", oracle, jump)
		requireThermalClose(t, name+"/jump-vs-oracle", oracle, jump, 1e-6, 1e-9)
	}
}

// TestEventControllerEpochsCanonical pins controller handling: epochs are
// canonical ticks, so a deterministic (non-thermal-reading) controller
// fires at exactly the oracle's times with exactly the oracle's effect.
func TestEventControllerEpochsCanonical(t *testing.T) {
	cfg := DefaultConfig()
	w := workload.Skype(7)
	oracle := runOracle(t, cfg, w, 240, &clampController{level: 2})
	tick := runEvent(t, cfg, w, 240, &clampController{level: 2}, modeTick)
	requireIdentical(t, "ctrl/tick", oracle, tick)
	jump := runEvent(t, cfg, w, 240, &clampController{level: 2}, modeJump)
	requireSchedulingIdentical(t, "ctrl/jump", oracle, jump)
	requireThermalClose(t, "ctrl/jump", oracle, jump, 0.05, 2e-3)
	if oracle.Ctrl != jump.Ctrl || jump.Ctrl != "clamp" {
		t.Fatalf("controller name lost: oracle %q jump %q", oracle.Ctrl, jump.Ctrl)
	}
}

// TestEventHotplugFallsBackToTick pins the degradation rule: hotplugged
// devices cannot hold capacity across a segment, so folding modes degrade
// to modeTick and stay byte-identical.
func TestEventHotplugFallsBackToTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableHotplug = true
	w := workload.SquareWave(1, 20, 0.5, 0.9, 0.05, 240)
	p := MustNew(cfg, nil)
	if e := p.startEventRun(w, 0, modeJump); e.mode != modeTick {
		t.Fatalf("hotplug event mode = %d, want modeTick", e.mode)
	}
	got, err := p.RunEventContext(context.Background(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := runOracle(t, cfg, w, 0, nil)
	requireIdentical(t, "hotplug", oracle, got)
}

// TestEventOpaqueWorkloadFallsBackToTick pins the other degradation rule:
// a workload without a boundary query cannot be folded.
func TestEventOpaqueWorkloadFallsBackToTick(t *testing.T) {
	w := opaqueWorkload{}
	p := MustNew(DefaultConfig(), nil)
	if e := p.startEventRun(w, 60, modeJump); e.mode != modeTick {
		t.Fatalf("opaque workload event mode = %d, want modeTick", e.mode)
	}
	got, err := p.RunEventContext(context.Background(), w, 60)
	if err != nil {
		t.Fatal(err)
	}
	oracle := runOracle(t, DefaultConfig(), w, 60, nil)
	requireIdentical(t, "opaque", oracle, got)
}

type opaqueWorkload struct{}

func (opaqueWorkload) Name() string      { return "opaque" }
func (opaqueWorkload) Duration() float64 { return 60 }
func (opaqueWorkload) At(t float64) workload.Sample {
	return workload.Sample{CPUFrac: 0.4, Display: 0.5}
}

// TestEventRK4FallbackHeldParity pins the ladder-unavailable path: with
// the network forced to RK4, LadderFor returns nil and modeJump's
// physics degrades to the sequential held-input path — byte-identical to
// modeOracle under the same forcing.
func TestEventRK4FallbackHeldParity(t *testing.T) {
	cfg := DefaultConfig()
	w := workload.Skype(7)
	mk := func(mode eventMode) *RunResult {
		p := MustNew(cfg, nil)
		p.net.UseRK4(true)
		res, err := p.runEvents(context.Background(), w, 180, mode)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oracle := mk(modeOracle)
	jump := mk(modeJump)
	requireIdentical(t, "rk4-fallback", oracle, jump)
}

// TestEventTouchFlipSplitsGap pins mid-gap touch handling: a workload
// whose touch flips between records forces a segment split with a
// network reconfiguration, and the jump engine must re-derive the ladder
// for each contact configuration (its two-slot memo covers both).
func TestEventTouchFlipSplitsGap(t *testing.T) {
	// Touch flips every 2.6 s — never aligned with the 1 s record grid, so
	// flips land mid-gap.
	phases := make([]workload.Phase, 0, 64)
	for i := 0; i < 60; i++ {
		phases = append(phases, workload.Phase{
			Name: "p", Dur: 2.6, CPU: 0.55, Display: 0.6, Touch: i%2 == 1,
		})
	}
	w := workload.New("touchflip", 0, phases...)
	cfg := DefaultConfig()
	oracle := runOracle(t, cfg, w, 0, nil)
	jump := runEvent(t, cfg, w, 0, nil, modeJump)
	requireSchedulingIdentical(t, "touchflip/jump", oracle, jump)
	requireThermalClose(t, "touchflip/jump", oracle, jump, 0.05, 2e-3)
	// The flip must actually couple the hand: skin peaks above an
	// untouched copy of the same load.
	if oracle.MaxSkinC <= 26 {
		t.Fatalf("touch workload barely warmed the cover (%.2f °C); flip not exercised", oracle.MaxSkinC)
	}
}

// TestEventRunCancellation pins segment-granular cancellation: a
// cancelled context finishes with partial aggregates, like RunContext.
func TestEventRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := MustNew(DefaultConfig(), nil)
	res, err := p.RunEventContext(ctx, workload.Skype(7), 120)
	if err == nil {
		t.Fatal("cancelled event run reported no error")
	}
	if res == nil || res.DurSec != 0 {
		t.Fatalf("pre-cancelled run should have zero duration, got %+v", res)
	}
}

// TestEventCounterNoiseVersion pins the versioned noise plumbing at the
// device level: NoiseVersionCounter changes the draws (different records)
// but the event engine stays exact against its own oracle, and the
// default zero value keeps the legacy stream.
func TestEventCounterNoiseVersion(t *testing.T) {
	legacy := DefaultConfig()
	counter := DefaultConfig()
	counter.NoiseVersion = 1 // sensors.NoiseVersionCounter
	w := workload.Skype(7)

	lg := runOracle(t, legacy, w, 120, nil)
	ct := runOracle(t, counter, w, 120, nil)
	if len(lg.Records) == 0 || len(lg.Records) != len(ct.Records) {
		t.Fatalf("record counts: legacy %d counter %d", len(lg.Records), len(ct.Records))
	}
	same := true
	for i := range lg.Records {
		if lg.Records[i].CPUTempC != ct.Records[i].CPUTempC {
			same = false
			break
		}
	}
	if same {
		t.Fatal("counter noise stream produced the legacy draw sequence")
	}
	// The event engine is stream-agnostic: byte-identical under modeTick
	// for the counter stream too.
	tick := runEvent(t, counter, w, 120, nil, modeTick)
	requireIdentical(t, "counter/tick", ct, tick)
}
