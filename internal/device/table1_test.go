package device_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/sweep"
)

const table1Spec = "../scenario/testdata/table1_reduced.json"

// table1Grid expands the reduced Table 1 grid, USTA cells included, the
// way the production sweep does (self-training its predictor).
func table1Grid(t *testing.T, traceFree bool) *sweep.Sweep {
	t.Helper()
	spec, err := scenario.Load(table1Spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceFree = traceFree
	sw, err := sweep.Expand(context.Background(), sweep.Config{Spec: spec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// table1Sweep runs the reduced Table 1 grid through the production
// sweep. It returns the grid (whose jobs the pins rebuild phone by
// phone), the sweep's results and the telemetry each cell streamed.
func table1Sweep(t *testing.T, traceFree bool) (*scenario.Grid, []fleet.JobResult, [][]device.Sample) {
	t.Helper()
	sw := table1Grid(t, traceFree)
	samples := make([][]device.Sample, len(sw.Grid.Jobs))
	var mu sync.Mutex
	res, err := sw.Run(context.Background(), nil, sweep.Hooks{Sink: sink.Func(func(id sink.JobID, s device.Sample) {
		mu.Lock()
		samples[id] = append(samples[id], s)
		mu.Unlock()
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.FirstError(res.Results); err != nil {
		t.Fatal(err)
	}
	return sw.Grid, res.Results, samples
}

// cellRun builds grid cell i's phone the way the fleet does — the seed
// the sweep resolved, a fresh governor and controller, the telemetry
// observer and the trace mode — and runs it with run. It returns the
// result and the telemetry the run emitted.
func cellRun(t *testing.T, grid *scenario.Grid, i int, run func(*device.Phone, fleet.Job) (*device.RunResult, error)) (*device.RunResult, []device.Sample) {
	t.Helper()
	job := grid.Jobs[i]
	cfg := device.DefaultConfig()
	if job.Device != nil {
		cfg = *job.Device
	}
	cfg.Seed = fleet.EffectiveSeed(grid.Spec.Seeds.Base, i, &job)
	var gov governor.Governor
	if job.Governor != nil {
		gov = job.Governor()
	}
	p, err := device.New(cfg, gov)
	if err != nil {
		t.Fatal(err)
	}
	if job.Controller != nil {
		if c := job.Controller(job.User); c != nil {
			p.SetController(c)
		}
	}
	var samples []device.Sample
	p.SetObserver(func(s device.Sample) { samples = append(samples, s) })
	p.SetTraceFree(job.TraceFree)
	res, err := run(p, job)
	if err != nil {
		t.Fatalf("cell %d (%s): %v", i, grid.Points[i].Name, err)
	}
	return res, samples
}

func tickLoop(p *device.Phone, job fleet.Job) (*device.RunResult, error) {
	return p.RunContext(context.Background(), job.Workload, job.DurSec)
}

func tickEngine(p *device.Phone, job fleet.Job) (*device.RunResult, error) {
	return p.RunTickContext(context.Background(), job.Workload, job.DurSec)
}

func jumpEngine(p *device.Phone, job fleet.Job) (*device.RunResult, error) {
	return p.RunEventContext(context.Background(), job.Workload, job.DurSec)
}

func requireSamplesIdentical(t *testing.T, label string, want, got []device.Sample) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: no telemetry", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEventTickMatchesOffTable1 is the event plumbing's acceptance pin:
// the event engine with every tick canonical routes the whole Table 1
// grid — USTA controllers included — and must be byte-identical to the
// fixed-tick loop, cell by cell, traced and trace-free: aggregates,
// trace, records and telemetry.
func TestEventTickMatchesOffTable1(t *testing.T) {
	for _, traceFree := range []bool{false, true} {
		grid := table1Grid(t, traceFree).Grid
		for i, pt := range grid.Points {
			label := pt.Name
			if traceFree {
				label += " trace-free"
			}
			ref, refSamples := cellRun(t, grid, i, tickLoop)
			got, gotSamples := cellRun(t, grid, i, tickEngine)
			device.RequireIdentical(t, label, ref, got)
			requireSamplesIdentical(t, label, refSamples, gotSamples)
		}
	}
}

// TestEventJumpCloseToOracleTable1 bounds the held-input discretization
// on the full grid, controllers included: peak temperatures within a
// small fraction of a kelvin, energy and duty-cycle aggregates within a
// small relative error. USTA runs may legitimately quantize an occasional
// clamp decision differently (the controller reads binned sensor
// records), which is why this plane is a tolerance, not an identity.
//
// The jump side is the production engine, and each cell must equal the
// production sweep's result and telemetry bit for bit — which also proves
// cellRun builds every phone the way the fleet does.
func TestEventJumpCloseToOracleTable1(t *testing.T) {
	const tempTol = 0.25 // °C on peaks
	const relTol = 0.05  // on energy / frequency / utilization aggregates
	rel := func(a, b float64) float64 {
		d := math.Abs(b)
		if d < 1 {
			d = 1
		}
		return math.Abs(a-b) / d
	}
	for _, traceFree := range []bool{false, true} {
		grid, prod, prodSamples := table1Sweep(t, traceFree)
		for i, pt := range grid.Points {
			label := pt.Name
			if traceFree {
				label += " trace-free"
			}
			g, gotSamples := cellRun(t, grid, i, jumpEngine)
			device.RequireIdentical(t, label+" vs sweep", prod[i].Result, g)
			requireSamplesIdentical(t, label+" vs sweep", prodSamples[i], gotSamples)
			if !traceFree {
				continue // the bounds need one pass; the trace-free one is cheaper
			}
			w, _ := cellRun(t, grid, i, tickLoop)
			temps := [][2]float64{
				{g.MaxSkinC, w.MaxSkinC}, {g.MaxScreenC, w.MaxScreenC},
				{g.MaxDieC, w.MaxDieC}, {g.MaxBatteryC, w.MaxBatteryC},
			}
			for ci, c := range temps {
				if d := math.Abs(c[0] - c[1]); d > tempTol {
					t.Errorf("%s: temp cell %d off by %.4f °C (jump %.4f, tick loop %.4f)", label, ci, d, c[0], c[1])
				}
			}
			rels := [][2]float64{
				{g.EnergyJ, w.EnergyJ}, {g.AvgFreqMHz, w.AvgFreqMHz},
				{g.AvgUtil, w.AvgUtil}, {g.WorkDone, w.WorkDone}, {g.EndSoC, w.EndSoC},
			}
			for ci, c := range rels {
				if d := rel(c[0], c[1]); d > relTol {
					t.Errorf("%s: aggregate cell %d rel err %.4f (jump %v, tick loop %v)", label, ci, d, c[0], c[1])
				}
			}
		}
	}
}
