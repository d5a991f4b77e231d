package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/users"
)

// mode is how a workload drives the program.
type mode int

const (
	// modeLocal runs each rep through repro.RunScenario in-process.
	modeLocal mode = iota
	// modeEvents submits each rep to the service and waits on its SSE
	// stream for the final frame.
	modeEvents
	// modeTelemetry submits each rep, streams its JSONL telemetry to EOF,
	// then polls its status until terminal.
	modeTelemetry
)

// workload is one named benchmark input and the loop that drives it.
type workload struct {
	name string
	spec string // file under <dir>/workloads
	mode mode
	why  string
}

var workloads = []workload{
	{"sweep-local", "population.json", modeLocal,
		"2080 trace-free cells in-process: device, governor and USTA inference dominate; no wire, bus, obs, WAL or HTTP"},
	{"service-population", "population.json", modeEvents,
		"the sweep-local grid through JobServer, two TCP workers and SSE: the gap to sweep-local is the service layers"},
	{"service-interactive", "whatif.json", modeEvents,
		"back-to-back 8-cell submissions: per-submission fixed costs (predictor training, WAL fsyncs, dial, SSE) dominate"},
	{"table1-telemetry", "table1.json", modeTelemetry,
		"the paper's Table 1 grid, traced, with its JSONL telemetry streamed: the raw-sample path and fidelity to the paper"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmupSpec is the one untimed submission (or local sweep) every workload
// runs during set-up.
const warmupSpec = "whatif.json"

// smokeCells caps a spec's grid in smoke mode.
const smokeCells = 16

// generateSpec loads a committed spec and derives the run's input from it:
// -seed S offsets seeds.base and seeds.workload by S-1, and smoke mode
// shrinks the grid's axes to at most smokeCells cells. The result is the
// canonical JSON the program is handed.
func generateSpec(path string, seed int, smoke bool) ([]byte, error) {
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	spec.Seeds.Base += int64(seed - 1)
	spec.Seeds.Workload += uint64(seed - 1)
	if smoke {
		shrink(spec)
	}
	return spec.Marshal()
}

// shrink halves the largest of the workload, population and ambient axes
// until the grid has at most smokeCells cells.
func shrink(spec *scenario.Spec) {
	if len(spec.Workloads) == 1 && spec.Workloads[0] == "all" {
		spec.Workloads = repro.BenchmarkNames()
	}
	if len(spec.Population) == 1 && spec.Population[0] == "all" {
		spec.Population = nil
		for _, u := range users.StudyPopulation() {
			spec.Population = append(spec.Population, u.ID)
		}
	}
	schemes := max(len(spec.Schemes), 1)
	for {
		w, p, a := len(spec.Workloads), max(len(spec.Population), 1), max(len(spec.AmbientsC), 1)
		if w*p*a*schemes <= smokeCells {
			return
		}
		switch {
		case w >= p && w >= a:
			spec.Workloads = spec.Workloads[:(w+1)/2]
		case p >= a:
			spec.Population = spec.Population[:(p+1)/2]
		default:
			spec.AmbientsC = spec.AmbientsC[:(a+1)/2]
		}
	}
}

// gridShape expands a generated spec without running it, for the per-cell
// coordinates and durations the harness needs (simulated seconds, paper
// anchors). The placeholder predictor is captured by usta controller
// closures that are never called.
func gridShape(specBytes []byte) (*scenario.Grid, error) {
	spec, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, err
	}
	return spec.Expand(scenario.Env{Predictor: &core.Predictor{}})
}

func simSeconds(g *scenario.Grid) float64 {
	total := 0.0
	for _, j := range g.Jobs {
		total += j.DurSec
	}
	return total
}

// comfortRows converts analytics comfort rows to the JSON-tagged form the
// service's event stream carries, so every path compares in one shape.
func comfortRows(ucs []analytics.UserComfort) []obs.Comfort {
	out := make([]obs.Comfort, len(ucs))
	for i, uc := range ucs {
		out[i] = obs.Comfort{UserID: uc.UserID, LimitC: uc.LimitC, N: uc.N, NViolation: uc.NViolation,
			MeanOverFrac: uc.MeanOverFrac, MaxOverFrac: uc.MaxOverFrac, MeanExcessC: uc.MeanExcessC,
			MeanSlowdown: uc.MeanSlowdown, MeanEnergyJ: uc.MeanEnergyJ}
	}
	return out
}

// expected is what a correct run of a generated spec produces: the
// per-user comfort table and the telemetry sample counts. It is committed
// under golden/ for seed 1 and computed by one untimed RunScenario at any
// other seed.
type expected struct {
	Comfort       []obs.Comfort `json:"comfort"`
	SamplesTotal  int64         `json:"samples_total"`
	SamplesPerJob []int64       `json:"samples_per_job,omitempty"`
	// golden marks a committed reference, compared with tolerances; a
	// freshly computed one must match exactly.
	golden bool
}

// countSink counts samples per job. Each job's samples arrive from one
// goroutine and Fleet.Run's return orders them before the read, like
// analytics.ViolationSink.
type countSink struct{ n []int64 }

func (c *countSink) Accept(job sink.JobID, _ device.Sample) { c.n[job]++ }
func (c *countSink) Close() error                           { return nil }

// reference runs the generated spec once through repro.RunScenario.
func reference(ctx context.Context, specBytes []byte, perJob bool) (*expected, error) {
	spec, err := repro.ParseScenario(specBytes)
	if err != nil {
		return nil, err
	}
	g, err := gridShape(specBytes)
	if err != nil {
		return nil, err
	}
	cs := &countSink{n: make([]int64, len(g.Jobs))}
	res, err := repro.RunScenario(ctx, spec, repro.ScenarioSink(cs))
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	exp := &expected{Comfort: comfortRows(res.ComfortByUser())}
	for _, n := range cs.n {
		exp.SamplesTotal += n
	}
	if perJob {
		exp.SamplesPerJob = cs.n
	}
	return exp, nil
}

func goldenPath(dir, name string) string { return filepath.Join(dir, "golden", name+".json") }

func loadGolden(dir, name string) (*expected, error) {
	data, err := os.ReadFile(goldenPath(dir, name))
	if err != nil {
		return nil, err
	}
	exp := &expected{golden: true}
	if err := json.Unmarshal(data, exp); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return exp, nil
}

func writeGolden(dir, name string, exp *expected) error {
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, name), append(data, '\n'), 0o644)
}

// Golden tolerances. They absorb the <=1e-6 thermal tolerance of the
// event-jump engine, so a stepping-engine change keeps the goldens.
const (
	tolFrac     = 0.002 // MeanOverFrac, MaxOverFrac, MeanSlowdown (absolute)
	tolExcessC  = 0.01  // MeanExcessC, °C
	tolEnergyRe = 0.001 // MeanEnergyJ, relative
)

// checkComfort compares a run's comfort table with the expected one:
// within the golden tolerances against a committed golden, bit for bit
// against a fresh reference run.
func (e *expected) checkComfort(got []obs.Comfort) error {
	if !e.golden {
		return sameComfort(got, e.Comfort)
	}
	if len(got) != len(e.Comfort) {
		return fmt.Errorf("%d comfort rows, golden has %d", len(got), len(e.Comfort))
	}
	var errs []error
	for i, g := range got {
		w := e.Comfort[i]
		if g.UserID != w.UserID || g.LimitC != w.LimitC || g.N != w.N || g.NViolation != w.NViolation {
			errs = append(errs, fmt.Errorf("row %d: %s/%g/n=%d/%d, golden %s/%g/n=%d/%d",
				i, g.UserID, g.LimitC, g.N, g.NViolation, w.UserID, w.LimitC, w.N, w.NViolation))
			continue
		}
		near := func(field string, a, b, tol float64) {
			if math.Abs(a-b) > tol {
				errs = append(errs, fmt.Errorf("user %s %s = %g, golden %g (tolerance %g)", g.UserID, field, a, b, tol))
			}
		}
		near("mean_over_frac", g.MeanOverFrac, w.MeanOverFrac, tolFrac)
		near("max_over_frac", g.MaxOverFrac, w.MaxOverFrac, tolFrac)
		near("mean_slowdown", g.MeanSlowdown, w.MeanSlowdown, tolFrac)
		near("mean_excess_c", g.MeanExcessC, w.MeanExcessC, tolExcessC)
		near("mean_energy_j", g.MeanEnergyJ, w.MeanEnergyJ, tolEnergyRe*math.Abs(w.MeanEnergyJ))
	}
	return errors.Join(errs...)
}

// sameComfort requires two comfort tables to be bit-identical (the JSON
// float encoding round-trips exactly).
func sameComfort(got, want []obs.Comfort) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("comfort tables differ:\n got  %s\n want %s", a, b)
	}
	return nil
}
