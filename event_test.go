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

// TestDefaultEngineIsJump pins the production engine on the Session path
// (behind ustatrace and the examples): Session.RunFor runs the event-jump
// engine — bit for bit the same results, traces and telemetry as calling
// it on the session's phone. The sweep path is pinned to the same engine
// by internal/device's Table 1 tests.
func TestDefaultEngineIsJump(t *testing.T) {
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
	ref, refSink := session("jump", func(s *repro.Session, w repro.Workload) (*repro.RunResult, error) {
		return s.Phone().RunEventContext(context.Background(), w, dur)
	})
	got, gotSink := session("RunFor", func(s *repro.Session, w repro.Workload) (*repro.RunResult, error) {
		return s.RunFor(context.Background(), w, dur)
	})
	requireRunsIdentical(t, "Session.RunFor", got, ref, gotSink, refSink)
}

// TestEventJumpRunnerInvariance pins the jump engine's determinism
// contract: the engine changes the numbers relative to the fixed-tick
// loop (held-input discretization), but those numbers must not depend on
// the parallelism — local at 1 worker and at GOMAXPROCS byte-identical.
// TestNetRunnerMatchesLocalTable1 pins the same grid across processes.
func TestEventJumpRunnerInvariance(t *testing.T) {
	ref, refSink := eventExec(t, "jump w1", false, repro.ScenarioWorkers(1))

	got, gotSink := eventExec(t, "jump wN", false, repro.ScenarioWorkers(runtime.GOMAXPROCS(0)))
	requireRunsIdentical(t, "jump wN", got, ref, gotSink, refSink)
}
