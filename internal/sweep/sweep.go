// Package sweep is the one scenario-sweep pipeline. repro.RunScenario
// (and through it `ustasim`) and the `ustafleetd` job server are thin
// callers: each supplies a spec, a runner and its own taps, and this
// package owns every step in between — predictor self-training, grid
// expansion, the resume plan's subset run, the one count of each cell's
// over-limit samples, ledgering, the full-grid merge and the analytics
// join.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	"repro/internal/scenario"
	"repro/internal/sink"
)

// Config is one sweep's inputs.
type Config struct {
	Spec *scenario.Spec
	// Predictor backs usta schemes. Nil self-trains one when the spec
	// needs it, exactly like the experiment pipeline: the thirteen
	// benchmarks on the default device (corpus seed from the spec, default
	// 42), REPTree on the log. Self-trained predictors are memoized per
	// process by training input, so repeated sweeps train once; a
	// predictor supplied here bypasses the memo.
	Predictor *core.Predictor
	// Workers bounds the worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Runner executes the cells (nil: the in-process pool).
	Runner fleet.Runner
}

// Sweep is an expanded scenario, ready to run.
type Sweep struct {
	// Grid is the full expanded grid; every index a sweep reports is a
	// position in it.
	Grid *scenario.Grid
	cfg  Config
	pred *fleet.EncodedPredictor // for out-of-process runners
}

// Expand resolves the sweep's predictor (self-training when needed) and
// expands the spec into its grid.
func Expand(ctx context.Context, cfg Config) (*Sweep, error) {
	spec := cfg.Spec
	devCfg := device.DefaultConfig()
	tr := &trained{pred: cfg.Predictor}
	if cfg.Predictor == nil && spec.NeedsPredictor() {
		corpusSeed := spec.Predictor.CorpusSeed
		if corpusSeed == 0 {
			corpusSeed = 42
		}
		var err error
		if tr, err = selfTrained(ctx, corpusSeed, spec.Predictor.CorpusPerRunSec, cfg.Workers); err != nil {
			return nil, err
		}
		cfg.Predictor = tr.pred
	}
	grid, err := spec.Expand(scenario.Env{Device: &devCfg, Predictor: cfg.Predictor})
	if err != nil {
		return nil, err
	}
	s := &Sweep{Grid: grid, cfg: cfg}
	// Runners that rebuild usta cells in other processes need the
	// predictor on the wire; encode it once per predictor, and only then.
	// The in-process pool runs the grid's own controller closures.
	if cfg.Runner != nil && spec.NeedsPredictor() {
		if s.pred, err = tr.encoded(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Hooks are a caller's taps into a running sweep. Every index they see is
// a full-grid index, including on a resume that runs only a subset. The
// sweep counts each live cell's over-limit samples once; Ledger and
// OnResult receive those counters rather than folding samples again.
type Hooks struct {
	// Sink receives every live cell's telemetry.
	Sink sink.Sink
	// Ledger receives each completed cell's journal entry (results with
	// traces stripped plus violation counters). Cells cut short by
	// cancellation are not ledgered: they must re-run on resume.
	Ledger func(durable.CellResult)
	// OnResult receives each live cell's result and violation counters as
	// it completes, after Ledger. Calls are serialized.
	OnResult func(fleet.JobResult, analytics.ViolationAccum)
	// Progress reports completion over the full grid: restored cells
	// count as done from the start. Calls are serialized.
	Progress func(done, total int)
}

// Result is a finished (or cancelled) sweep over the full grid.
type Result struct {
	// Results holds one result per grid cell, in grid order: live cells
	// as they ran, ledgered cells restored from the plan.
	Results []fleet.JobResult
	// Stats is the analytics join of Grid and Results, violation
	// statistics filled in.
	Stats []analytics.JobStat
	// RunStats is what the runner measured over the live cells (zero on
	// the in-process pool).
	RunStats fleet.RunStats
}

// Run executes the plan's unfinished cells (a nil plan runs every cell)
// and joins them with the restored ones into full-grid results and
// stats. Per-cell failures surface in Result.Results; the error covers
// the subset and the analytics join.
func (s *Sweep) Run(ctx context.Context, plan *durable.Plan, h Hooks) (*Result, error) {
	grid := s.Grid
	var err error
	if plan == nil {
		if plan, err = durable.NewPlan(grid, nil, nil); err != nil {
			return nil, err
		}
	}
	runGrid, remap, err := plan.SubGrid()
	if err != nil {
		return nil, err
	}
	// Every live cell's violation statistics accumulate on the fly in one
	// ViolationSink teed beside the caller's sink, traced or not. Sinks
	// index the full grid; a subset run reaches them through the remap
	// adapter.
	vs := analytics.NewViolationSink(grid.Limits())
	var runSink sink.Sink = vs
	if h.Sink != nil {
		runSink = sink.NewTee(vs, h.Sink)
	}
	if remap != nil {
		runSink = sink.NewRemap(runSink, remap)
	}
	fcfg := fleet.Config{
		Workers:   s.cfg.Workers,
		Seed:      s.cfg.Spec.Seeds.Base,
		Sink:      runSink,
		Predictor: s.pred,
	}
	if h.Ledger != nil || h.OnResult != nil {
		fcfg.OnResult = func(res fleet.JobResult) {
			if remap != nil {
				res.Index = remap[res.Index]
			}
			acc := vs.Accum(res.Index)
			if h.Ledger != nil && !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
				h.Ledger(durable.CellEntry(res, acc))
			}
			if h.OnResult != nil {
				h.OnResult(res, acc)
			}
		}
	}
	if h.Progress != nil {
		restored, total := len(plan.Done), len(grid.Jobs)
		fcfg.OnProgress = func(done, _ int) { h.Progress(restored+done, total) }
	}
	runner := s.cfg.Runner
	if runner == nil {
		runner = fleet.LocalRunner{}
	}
	results, runStats := runner.Run(ctx, fcfg, runGrid.Jobs)
	// A subset run lands its results at their full-grid indices and the
	// ledgered cells are restored around them.
	if remap != nil {
		sub := results
		results = make([]fleet.JobResult, len(grid.Jobs))
		for i, r := range sub {
			r.Index = remap[i]
			results[r.Index] = r
		}
		plan.MergeInto(results)
	}
	stats, err := joinStats(grid, results)
	if err != nil {
		return nil, err
	}
	vs.Apply(stats)
	plan.ApplyViolations(stats)
	return &Result{Results: results, Stats: stats, RunStats: runStats}, nil
}

// joinStats is analytics.Flatten without its trace fold: it joins the
// grid with its results and leaves every cell's violation statistics
// unset. The sweep's ViolationSink counted every live cell's samples and
// the plan holds every restored cell's counters, so folding the retained
// traces again would only be overwritten.
func joinStats(grid *scenario.Grid, results []fleet.JobResult) ([]analytics.JobStat, error) {
	if len(results) != len(grid.Jobs) {
		return nil, fmt.Errorf("sweep: %d results for %d jobs", len(results), len(grid.Jobs))
	}
	stats := make([]analytics.JobStat, len(results))
	for i, jr := range results {
		stats[i] = analytics.JobStat{
			Point:    grid.Points[i],
			Result:   jr.Result,
			Err:      jr.Err,
			OverFrac: math.NaN(), MeanExcessC: math.NaN(),
		}
	}
	return stats, nil
}
