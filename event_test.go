package repro_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro"
)

// eventExec runs the reduced Table 1 scenario under the given options and
// returns results plus the telemetry fingerprint.
func eventExec(t *testing.T, label string, traceFree bool, opts ...repro.ScenarioOption) ([]repro.JobResult, *countingSink) {
	t.Helper()
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceFree = traceFree
	cs := newCountingSink()
	res, err := repro.RunScenario(context.Background(), spec,
		append([]repro.ScenarioOption{
			repro.ScenarioPredictor(scenarioPipeline().Predictor()),
			repro.ScenarioSink(cs),
		}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res.Results, cs
}

// requireRunsIdentical asserts byte-identity across two scenario runs:
// every aggregate cell, every trace cell, and the telemetry fingerprint.
func requireRunsIdentical(t *testing.T, label string, got, want []repro.JobResult, gotSink, wantSink *countingSink) {
	t.Helper()
	bits := math.Float64bits
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Result, want[i].Result
		if got[i].SeedUsed != want[i].SeedUsed || got[i].Name != want[i].Name {
			t.Fatalf("%s: job %d identity diverged", label, i)
		}
		cells := [][2]float64{
			{g.MaxSkinC, w.MaxSkinC}, {g.MaxScreenC, w.MaxScreenC},
			{g.MaxDieC, w.MaxDieC}, {g.MaxBatteryC, w.MaxBatteryC},
			{g.AvgFreqMHz, w.AvgFreqMHz}, {g.AvgUtil, w.AvgUtil},
			{g.EnergyJ, w.EnergyJ}, {g.WorkDone, w.WorkDone},
			{g.WorkDemanded, w.WorkDemanded}, {g.StartSoC, w.StartSoC},
			{g.EndSoC, w.EndSoC},
		}
		for ci, c := range cells {
			if bits(c[0]) != bits(c[1]) {
				t.Fatalf("%s: job %d cell %d = %v, reference %v", label, i, ci, c[0], c[1])
			}
		}
		if (g.Trace == nil) != (w.Trace == nil) {
			t.Fatalf("%s: job %d trace presence diverged", label, i)
		}
		if g.Trace != nil {
			if g.Trace.Len() != w.Trace.Len() {
				t.Fatalf("%s: job %d trace rows %d vs %d", label, i, g.Trace.Len(), w.Trace.Len())
			}
			for ti := range g.Trace.TimeSec {
				if bits(g.Trace.TimeSec[ti]) != bits(w.Trace.TimeSec[ti]) {
					t.Fatalf("%s: job %d time axis row %d diverged", label, i, ti)
				}
			}
			for si, gs := range g.Trace.Series {
				ws := w.Trace.Series[si]
				for ri := range gs.Values {
					if bits(gs.Values[ri]) != bits(ws.Values[ri]) {
						t.Fatalf("%s: job %d trace %s row %d = %v, reference %v",
							label, i, gs.Name, ri, gs.Values[ri], ws.Values[ri])
					}
				}
			}
		}
	}
	for i := range want {
		if gotSink.counts[i] != wantSink.counts[i] || gotSink.sums[i] != wantSink.sums[i] {
			t.Fatalf("%s: job %d telemetry diverged: %d samples / sum %v, reference %d / %v",
				label, i, gotSink.counts[i], gotSink.sums[i], wantSink.counts[i], wantSink.sums[i])
		}
		if wantSink.counts[i] == 0 {
			t.Fatalf("job %d delivered no samples", i)
		}
	}
}

// TestEventTickMatchesOffTable1 is the event plumbing's acceptance pin:
// EventTick routes the whole Table 1 grid — USTA controllers included —
// through the event engine with every tick canonical, and must be
// byte-identical to the plain loop on the local and sharded runners,
// traced and trace-free.
func TestEventTickMatchesOffTable1(t *testing.T) {
	for _, traceFree := range []bool{false, true} {
		mode := "traced"
		if traceFree {
			mode = "trace-free"
		}
		ref, refSink := eventExec(t, "off "+mode, traceFree, repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventOff))

		got, gotSink := eventExec(t, "tick local "+mode, traceFree,
			repro.ScenarioWorkers(runtime.GOMAXPROCS(0)), repro.ScenarioEventMode(repro.EventTick))
		requireRunsIdentical(t, "tick local "+mode, got, ref, gotSink, refSink)

		if !traceFree {
			got, gotSink = eventExec(t, "tick sharded", traceFree,
				repro.ScenarioEventMode(repro.EventTick), repro.ScenarioShards(2))
			requireRunsIdentical(t, "tick sharded", got, ref, gotSink, refSink)
		}
	}
}

// TestDefaultEngineIsJump pins the production engine: a sweep that names
// no engine, and Session.RunFor (the path behind ustatrace and the
// examples), both run EventJump — bit for bit the same results, traces
// and telemetry as asking for it by name.
func TestDefaultEngineIsJump(t *testing.T) {
	ref, refSink := eventExec(t, "named jump", false,
		repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventJump))
	got, gotSink := eventExec(t, "default", false, repro.ScenarioWorkers(1))
	requireRunsIdentical(t, "default sweep", got, ref, gotSink, refSink)

	pred := scenarioPipeline().Predictor()
	session := func(label string, run func(*repro.Session, repro.Workload) (*repro.RunResult, error)) ([]repro.JobResult, *countingSink) {
		t.Helper()
		cs := newCountingSink()
		s, err := repro.NewSession(repro.WithSeed(11), repro.WithController(repro.NewUSTA(pred, repro.DefaultLimitC)), repro.WithSink(cs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(s, repro.WorkloadByName("game", 7))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return []repro.JobResult{{Name: "game", Result: res}}, cs
	}
	const dur = 900
	ref, refSink = session("named jump", func(s *repro.Session, w repro.Workload) (*repro.RunResult, error) {
		return s.Phone().RunEventContext(context.Background(), w, dur, repro.EventJump)
	})
	got, gotSink = session("RunFor", func(s *repro.Session, w repro.Workload) (*repro.RunResult, error) {
		return s.RunFor(context.Background(), w, dur)
	})
	requireRunsIdentical(t, "Session.RunFor", got, ref, gotSink, refSink)
}

// TestEventJumpRunnerInvariance pins the jump engine's determinism
// contract: the mode changes the numbers relative to the tick oracle
// (held-input discretization), but those numbers must not depend on the
// runner shape or parallelism — local at 1 worker, local at GOMAXPROCS
// and sharded all byte-identical.
func TestEventJumpRunnerInvariance(t *testing.T) {
	ref, refSink := eventExec(t, "jump w1", false,
		repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventJump))

	got, gotSink := eventExec(t, "jump wN", false,
		repro.ScenarioWorkers(runtime.GOMAXPROCS(0)), repro.ScenarioEventMode(repro.EventJump))
	requireRunsIdentical(t, "jump wN", got, ref, gotSink, refSink)

	got, gotSink = eventExec(t, "jump sharded", false,
		repro.ScenarioEventMode(repro.EventJump), repro.ScenarioShards(2))
	requireRunsIdentical(t, "jump sharded", got, ref, gotSink, refSink)
}

// TestEventJumpCloseToOracleTable1 bounds the held-input discretization
// on the full grid, controllers included: peak temperatures within a
// small fraction of a kelvin, energy and duty-cycle aggregates within a
// small relative error. USTA runs may legitimately quantize an occasional
// clamp decision differently (the controller reads binned sensor
// records), which is why this plane is a tolerance, not an identity.
func TestEventJumpCloseToOracleTable1(t *testing.T) {
	ref, _ := eventExec(t, "off", true, repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventOff))
	got, _ := eventExec(t, "jump", true,
		repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventJump))

	const tempTol = 0.25 // °C on peaks
	const relTol = 0.05  // on energy / frequency / utilization aggregates
	rel := func(a, b float64) float64 {
		d := math.Abs(b)
		if d < 1 {
			d = 1
		}
		return math.Abs(a-b) / d
	}
	for i := range ref {
		g, w := got[i].Result, ref[i].Result
		temps := [][2]float64{
			{g.MaxSkinC, w.MaxSkinC}, {g.MaxScreenC, w.MaxScreenC},
			{g.MaxDieC, w.MaxDieC}, {g.MaxBatteryC, w.MaxBatteryC},
		}
		for ci, c := range temps {
			if d := math.Abs(c[0] - c[1]); d > tempTol {
				t.Errorf("job %d (%s) temp cell %d off by %.4f °C (jump %.4f, oracle %.4f)",
					i, ref[i].Name, ci, d, c[0], c[1])
			}
		}
		rels := [][2]float64{
			{g.EnergyJ, w.EnergyJ}, {g.AvgFreqMHz, w.AvgFreqMHz},
			{g.AvgUtil, w.AvgUtil}, {g.WorkDone, w.WorkDone}, {g.EndSoC, w.EndSoC},
		}
		for ci, c := range rels {
			if d := rel(c[0], c[1]); d > relTol {
				t.Errorf("job %d (%s) aggregate cell %d rel err %.4f (jump %v, oracle %v)",
					i, ref[i].Name, ci, d, c[0], c[1])
			}
		}
	}
}
