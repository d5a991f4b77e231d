// Package repro is the public API of the USTA reproduction: a simulation
// study of "User-Specific Skin Temperature-Aware DVFS for Smartphones"
// (Egilmez, Memik, Ogrenci-Memik, Ergin — DATE 2015).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - a simulated Nexus-4-class handset (thermal RC network + DVFS-capable
//     SoC + sensors + cpufreq governor) behind an options-based Session:
//     NewSession, WithDevice, WithGovernor, WithController, WithAmbientC,
//     WithSeed, WithObserver
//   - a concurrent multi-user batch engine for sweeps over users, device
//     configs, workloads and controllers: NewFleet, Job, JobResult
//   - the paper's thirteen evaluation workloads plus synthetic generators:
//     Benchmarks, WorkloadByName
//   - the training pipeline for the run-time skin/screen temperature
//     predictor: CollectCorpusContext, TrainPredictor
//   - the USTA controller itself: NewUSTA (attach with WithController)
//   - the ten-participant study population: StudyPopulation, DefaultLimitC
//   - one runner per published table/figure: NewPipeline, RunFig1…RunFig5,
//     RunTable1
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	cfg := repro.DefaultDeviceConfig()
//	corpus, _ := repro.CollectCorpusContext(ctx, cfg, repro.Benchmarks(1), 0, 0)
//	pred, _ := repro.TrainPredictor(corpus)
//	s, err := repro.NewSession(
//		repro.WithDevice(cfg),
//		repro.WithController(repro.NewUSTA(pred, repro.DefaultLimitC)),
//	)
//	if err != nil { ... }
//	res, _ := s.Run(ctx, repro.WorkloadByName("skype", 7))
//	fmt.Printf("peak skin %.1f °C at %.2f GHz average\n",
//		res.MaxSkinC, res.AvgFreqMHz/1000)
//
// Population-scale sweeps go through a Fleet, which fans independent jobs
// out across a worker pool with deterministic per-job seeding — the same
// jobs produce byte-identical results at any worker count:
//
//	fl := repro.NewFleet(repro.FleetConfig{Workers: runtime.GOMAXPROCS(0)})
//	jobs := make([]repro.Job, 0, len(repro.StudyPopulation()))
//	for _, u := range repro.StudyPopulation() {
//		jobs = append(jobs, repro.Job{
//			User:     u,
//			Workload: repro.WorkloadByName("skype", 7),
//			Controller: func(u repro.User) repro.Controller {
//				return repro.NewUSTA(pred, u.SkinLimitC)
//			},
//		})
//	}
//	for _, jr := range fl.Run(ctx, jobs) { ... }
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/governor"
	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
	"repro/internal/scenario"
	"repro/internal/sensors"
	"repro/internal/sink"
	"repro/internal/sweep"
	"repro/internal/users"
	"repro/internal/workload"
)

// Re-exported core types. The aliases keep one canonical implementation in
// the internal packages while giving external users a single import.
type (
	// Phone is the simulated handset.
	Phone = device.Phone
	// DeviceConfig parameterizes the handset.
	DeviceConfig = device.Config
	// RunResult aggregates one workload execution.
	RunResult = device.RunResult
	// Sample is one telemetry point streamed to a WithObserver hook.
	Sample = device.Sample
	// Controller is the thermal-management hook (USTA implements it).
	Controller = device.Controller
	// Governor is the cpufreq policy interface.
	Governor = governor.Governor

	// Session is one simulated handset behind options-based construction
	// and context-aware execution.
	Session = fleet.Session
	// SessionOption configures NewSession.
	SessionOption = fleet.Option
	// Fleet is the concurrent multi-user batch engine.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes NewFleet.
	FleetConfig = fleet.Config
	// Job is one unit of fleet work: (user, workload, device config,
	// controller factory).
	Job = fleet.Job
	// JobSpec is a Job's serializable description — what lets it cross a
	// process boundary to a worker daemon. Scenario-expanded jobs carry
	// one automatically.
	JobSpec = fleet.JobSpec
	// JobResult is one job's outcome, with per-job errors.
	JobResult = fleet.JobResult
	// Runner executes fleet batches: the in-process pool by default, or
	// the multi-process coordinator over worker daemons (NewNetRunner).
	Runner = fleet.Runner
	// RunStats is what a Runner measured over one batch: per-host
	// recovery state and fallback use.
	RunStats = fleet.RunStats

	// Workload is a deterministic demand trace.
	Workload = workload.Workload
	// WorkloadProgram is a phase-structured workload.
	WorkloadProgram = workload.Program

	// Record is one line of the on-device logging app.
	Record = sensors.Record

	// Predictor predicts skin/screen temperature from a Record.
	Predictor = core.Predictor
	// USTA is the skin-temperature-aware DVFS controller.
	USTA = core.USTA
	// Policy maps limit margin to a frequency clamp.
	Policy = core.Policy

	// User is one study participant.
	User = users.User

	// Regressor is a trainable regression model.
	Regressor = ml.Regressor

	// ExperimentConfig parameterizes the evaluation pipeline.
	ExperimentConfig = experiments.Config
	// Pipeline caches the corpus and predictor across experiments.
	Pipeline = experiments.Pipeline

	// ScenarioSpec is a declarative sweep: a versioned population ×
	// workloads × ambients × scheme grid that expands deterministically
	// into fleet jobs. Build one in Go or load it with LoadScenario.
	ScenarioSpec = scenario.Spec
	// ScenarioScheme is one governor/controller/limit point of a spec.
	ScenarioScheme = scenario.Scheme
	// ScenarioGrid is an expanded scenario: jobs plus their grid
	// coordinates.
	ScenarioGrid = scenario.Grid
	// ScenarioPoint is one job's grid coordinates.
	ScenarioPoint = scenario.Point

	// Sink consumes streamed per-job telemetry; see NewJSONLSink and
	// NewViolationSink.
	Sink = sink.Sink
	// SinkJobID tags a sample with the job that produced it.
	SinkJobID = sink.JobID

	// JobStat joins one job's grid coordinates, run outcome and violation
	// statistics — the unit the analytics aggregate over.
	JobStat = analytics.JobStat
	// UserComfort is one user's violation/comfort distribution.
	UserComfort = analytics.UserComfort
	// HeatMap is a row × column matrix of aggregated sweep results.
	HeatMap = analytics.HeatMap
	// SchemeDelta is one grid cell's scheme-vs-scheme outcome.
	SchemeDelta = analytics.Delta
	// ViolationSink accumulates streaming per-job time-over-limit
	// statistics (see NewViolationSink).
	ViolationSink = analytics.ViolationSink
)

// DefaultLimitC is the "default user" comfort limit (37 °C), the average of
// the study population's reported limits.
const DefaultLimitC = users.DefaultLimitC

// Sensor noise stream versions for DeviceConfig.NoiseVersion: legacy is
// the math/rand stream every committed golden was generated with (a
// reseed costs about 3 µs per sensor, four per pooled job); counter is
// the splitmix64 counter stream with O(1) reseeding and position seeking.
const (
	NoiseVersionLegacy  = sensors.NoiseVersionLegacy
	NoiseVersionCounter = sensors.NoiseVersionCounter
)

// DefaultDeviceConfig returns the calibrated Nexus-4-like device
// configuration.
func DefaultDeviceConfig() DeviceConfig { return device.DefaultConfig() }

// NewSession assembles a simulated handset from functional options. It
// never panics: invalid configurations are reported as errors. The zero
// option set is the calibrated default phone under the stock ondemand
// governor.
func NewSession(opts ...SessionOption) (*Session, error) { return fleet.NewSession(opts...) }

// WithDevice sets the session's handset configuration.
func WithDevice(cfg DeviceConfig) SessionOption { return fleet.WithDevice(cfg) }

// WithGovernor installs a specific cpufreq governor instance.
func WithGovernor(g Governor) SessionOption { return fleet.WithGovernor(g) }

// WithGovernorName selects a governor by its sysfs name ("ondemand",
// "interactive", "conservative", "schedutil", "performance", "powersave").
func WithGovernorName(name string) SessionOption { return fleet.WithGovernorName(name) }

// WithController attaches a thermal controller (e.g. NewUSTA) to the
// session's phone.
func WithController(c Controller) SessionOption { return fleet.WithController(c) }

// WithAmbientC overrides the ambient temperature in °C.
func WithAmbientC(c float64) SessionOption { return fleet.WithAmbientC(c) }

// WithSeed overrides the device seed driving sensor noise.
func WithSeed(seed int64) SessionOption { return fleet.WithSeed(seed) }

// WithObserver installs a per-sample telemetry hook fired once per trace
// row during a run — live streaming instead of the aggregate RunResult.
func WithObserver(fn func(Sample)) SessionOption { return fleet.WithObserver(fn) }

// WithTraceFree runs the session without retaining Trace/Records while
// keeping all aggregates identical; pair with WithObserver to stream
// telemetry instead of buffering it. Fleet jobs opt in per job via
// Job.TraceFree.
func WithTraceFree() SessionOption { return fleet.WithTraceFree() }

// WithSink streams the session's telemetry into a sink (job tag 0);
// composable with WithObserver, and still fires for every sample under
// WithTraceFree. The caller owns the sink's lifecycle.
func WithSink(s Sink) SessionOption { return fleet.WithSink(s) }

// NewFleet creates the concurrent batch engine; the zero FleetConfig is
// valid and uses GOMAXPROCS workers.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// NewNetRunner returns a fleet Runner that dispatches shards to long-lived
// worker daemons (`ustaworker -listen host:port`) over TCP. It partitions
// every batch into work items and merges results — and streamed
// telemetry — back into submission order. Each host advertises its shard
// capacity in a hello handshake; the coordinator keeps that many dispatch
// slots open per host, tracks liveness with heartbeat deadlines, and on a lost worker
// re-dispatches only the jobs whose results never arrived. Seeds are
// resolved coordinator-side from job position, so a distributed run is
// byte-identical to the in-process runner — including after a mid-shard
// worker death and retry. Hosts are self-healing: a dead host is redialed
// with capped exponential backoff and seeded jitter and re-admitted
// mid-run; hosts pull work from one queue, so a slow host takes fewer
// shards, and a shard a host lost goes to another connected host when one
// can take it; and with FallbackLocal set, a run with no host connected
// for AllDeadDeadline finishes on the in-process pool instead of failing
// — still byte-identical, seeds were already pinned. Jobs must carry a JobSpec
// (scenario-expanded jobs do); specs that use the usta controller need
// the encoded predictor in FleetConfig.Predictor, which RunScenario fills
// in. See the Runner's fields (exported from internal/fleet/net) for
// retry, backoff and heartbeat tuning. Run returns each run's recovery snapshot
// (RunStats) with its results; RunScenario reports it in
// SweepResult.RunStats. Its results carry every aggregate but never a
// Trace or Records, whatever the jobs ask: traces do not cross the wire.
func NewNetRunner(hosts []string) *fleetnet.Runner { return fleetnet.New(hosts) }

// LoadScenario reads a declarative sweep spec from a JSON file and
// validates it.
func LoadScenario(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a sweep spec from JSON bytes.
// Input that is not a JSON object and unknown fields are rejected.
func ParseScenario(data []byte) (*ScenarioSpec, error) { return scenario.Parse(data) }

// SweepResult is one scenario run: the expanded grid, the per-job fleet
// results (submission order), the joined per-job stats the analytics
// helpers consume, and what the runner measured while it ran the sweep.
type SweepResult struct {
	Grid    *ScenarioGrid
	Results []JobResult
	Stats   []JobStat
	// RunStats is this sweep's own recovery snapshot from a net runner:
	// per-host connection state, redials, items and predictor ships, plus
	// fallback use. It is zero on the in-process pool.
	RunStats RunStats
}

// FirstError returns the first failed job's error, or nil.
func (r *SweepResult) FirstError() error { return fleet.FirstError(r.Results) }

// ComfortByUser aggregates the sweep into per-user comfort distributions.
func (r *SweepResult) ComfortByUser() []UserComfort { return analytics.ComfortByUser(r.Stats) }

// ViolationHeatMap pivots the sweep into an ambient × limit map of mean
// time-over-limit.
func (r *SweepResult) ViolationHeatMap() *HeatMap { return analytics.ViolationHeatMap(r.Stats) }

// CompareSchemes reduces the sweep to per-cell deltas (alt − base).
func (r *SweepResult) CompareSchemes(base, alt string) ([]SchemeDelta, error) {
	return analytics.CompareSchemes(r.Stats, base, alt)
}

// scenarioRun accumulates RunScenario options.
type scenarioRun struct {
	workers  int
	runner   Runner
	pred     *Predictor
	sink     Sink
	progress func(done, total int)
	walPath  string
	resume   bool
}

// ScenarioOption configures RunScenario.
type ScenarioOption func(*scenarioRun)

// ScenarioWorkers bounds the sweep's worker pool (<= 0: GOMAXPROCS).
// Results are identical at any width. Under a ScenarioRunner net runner
// this is the pool width inside each worker daemon.
func ScenarioWorkers(n int) ScenarioOption { return func(rc *scenarioRun) { rc.workers = n } }

// ScenarioRunner executes the sweep on a custom fleet Runner — e.g. a
// NewNetRunner. The runner is used as given, never copied or
// modified: the sweep's (supplied or self-trained) predictor reaches its
// workers through the run's FleetConfig, and the runner's RunStats for
// this sweep alone come back in SweepResult.RunStats. Concurrent sweeps
// may share one runner. A NewNetRunner returns no Trace or Records, so a
// traced spec keeps its traces only on the in-process pool, and it ships
// only REPTree predictors: any other ScenarioPredictor fails the sweep at
// expansion with core.ErrNotREPTree.
func ScenarioRunner(r Runner) ScenarioOption {
	return func(rc *scenarioRun) { rc.runner = r }
}

// ScenarioPredictor supplies the trained predictor backing usta schemes.
// Without it, RunScenario trains one from the spec's predictor settings
// (deterministic, but a corpus collection per call — share a predictor
// across sweeps when running many). A predictor that is not REPTree runs
// in-process only; with a ScenarioRunner the sweep refuses it.
func ScenarioPredictor(p *Predictor) ScenarioOption { return func(rc *scenarioRun) { rc.pred = p } }

// ScenarioSink streams every job's telemetry into s during the sweep.
// Combined with the spec's trace_free, a sweep of any size runs with O(1)
// sample memory. RunScenario does not close the sink.
func ScenarioSink(s Sink) ScenarioOption { return func(rc *scenarioRun) { rc.sink = s } }

// ScenarioProgress reports per-job completion (calls are serialized).
func ScenarioProgress(fn func(done, total int)) ScenarioOption {
	return func(rc *scenarioRun) { rc.progress = fn }
}

// ScenarioWAL journals the sweep to a write-ahead log at path: the spec
// and the expanded cell table (every cell's name and pre-resolved seed)
// before the first job runs, then each completed cell's result and
// violation counters as it finishes. A run killed partway leaves a log
// that ScenarioResume continues from, re-running only the missing cells —
// final aggregates byte-identical to an uninterrupted run. A non-empty
// log at path without ScenarioResume is refused, not overwritten.
// (`ustasim -wal`; the daemon's `-state-dir` is the multi-job form.)
func ScenarioWAL(path string) ScenarioOption {
	return func(rc *scenarioRun) { rc.walPath = path }
}

// ScenarioResume continues an interrupted ScenarioWAL sweep: the journaled
// cell table is verified against the freshly expanded grid (a spec or
// seed change refuses to resume rather than mixing physics), ledgered
// cells are restored without re-running, and only the remainder executes.
// Resuming an already-complete log just restores every cell.
func ScenarioResume() ScenarioOption {
	return func(rc *scenarioRun) { rc.resume = true }
}

// RunScenario expands the spec and executes the whole grid on a fleet:
// the declarative counterpart of NewFleet + hand-built jobs. Per-job
// failures surface in the result (SweepResult.FirstError); the returned
// error covers spec, expansion and predictor-training problems. Output is
// byte-identical at any worker count.
func RunScenario(ctx context.Context, spec *ScenarioSpec, opts ...ScenarioOption) (*SweepResult, error) {
	if spec == nil {
		return nil, fmt.Errorf("repro: RunScenario(nil spec)")
	}
	rc := scenarioRun{}
	for _, opt := range opts {
		opt(&rc)
	}
	sw, err := sweep.Expand(ctx, sweep.Config{Spec: spec, Predictor: rc.pred,
		Workers: rc.workers, Runner: rc.runner})
	if err != nil {
		return nil, err
	}
	hooks := sweep.Hooks{Sink: rc.sink, Progress: rc.progress}
	// With ScenarioWAL the sweep is journaled: open (or resume) the log and
	// derive the plan — which cells are already ledgered, which still run.
	// Ledger errors latch inside the log: a bad disk does not fail the
	// sweep, it surfaces at Close.
	var jlog *durable.JobLog
	var plan *durable.Plan
	if rc.walPath != "" {
		specBytes, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("repro: marshal spec for journal: %w", err)
		}
		if jlog, plan, err = durable.OpenSweep(rc.walPath, sw.Grid, specBytes, rc.resume); err != nil {
			return nil, err
		}
		hooks.Ledger = func(c durable.CellResult) { jlog.CellDone(c) }
	}
	res, err := sw.Run(ctx, plan, hooks)
	if jlog != nil {
		// A cancelled run leaves the log non-terminal so ScenarioResume can
		// continue it; a completed run is sealed with its status. Journal
		// failures latched during the run surface here, loudly — the sweep's
		// numbers are fine, but its durability promise is not.
		if err == nil && ctx.Err() == nil {
			st := durable.Status{Status: "done"}
			if ferr := fleet.FirstError(res.Results); ferr != nil {
				st = durable.Status{Status: "failed", Error: ferr.Error()}
			}
			jlog.Finish(st)
		}
		if cerr := jlog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("repro: sweep journal %s: %w", rc.walPath, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &SweepResult{Grid: sw.Grid, Results: res.Results, Stats: res.Stats, RunStats: res.RunStats}, nil
}

// NewJSONLSink streams samples as one JSON object per line. It is safe
// for concurrent Accept calls and latches its first I/O error for Close.
func NewJSONLSink(w io.Writer) Sink { return sink.NewJSONL(w) }

// NewViolationSink accumulates per-job time-over-limit statistics from a
// stream (limits indexed by job, typically ScenarioGrid.Limits) — the
// trace-free path to violation analytics; Apply it to SweepResult.Stats.
// RunScenario needs none: its sweep tees one beside the caller's sink for
// every spec, traced or trace-free.
func NewViolationSink(limits []float64) *ViolationSink {
	return analytics.NewViolationSink(limits)
}

// Analytics renderers: markdown and CSV forms of the sweep aggregates.

// ComfortMarkdown renders per-user comfort rows as a markdown table.
func ComfortMarkdown(rows []UserComfort) string { return analytics.ComfortMarkdown(rows) }

// WriteComfortCSV renders per-user comfort rows as CSV.
func WriteComfortCSV(w io.Writer, rows []UserComfort) error {
	return analytics.WriteComfortCSV(w, rows)
}

// DeltasMarkdown renders scheme-vs-scheme deltas as a markdown table.
func DeltasMarkdown(deltas []SchemeDelta, base, alt string) string {
	return analytics.DeltasMarkdown(deltas, base, alt)
}

// WriteDeltasCSV renders scheme-vs-scheme deltas as CSV.
func WriteDeltasCSV(w io.Writer, deltas []SchemeDelta) error {
	return analytics.WriteDeltasCSV(w, deltas)
}

// GovernorByName constructs a cpufreq governor by name against a device
// configuration's OPP table.
func GovernorByName(name string, cfg DeviceConfig) (Governor, error) {
	freqs := make([]float64, len(cfg.SoC.OPPs))
	for i, o := range cfg.SoC.OPPs {
		freqs[i] = o.FreqMHz
	}
	return governor.ByName(name, freqs)
}

// Benchmarks returns the paper's thirteen evaluation workloads.
func Benchmarks(seed uint64) []Workload {
	bs := workload.Benchmarks(seed)
	out := make([]Workload, len(bs))
	for i, b := range bs {
		out[i] = b
	}
	return out
}

// BenchmarkNames lists the thirteen workload names in Table 1 column order.
func BenchmarkNames() []string {
	return append([]string(nil), workload.BenchmarkNames...)
}

// WorkloadByName returns one of the thirteen paper workloads by name, or
// nil for unknown names.
func WorkloadByName(name string, seed uint64) Workload {
	w := workload.ByName(name, seed)
	if w == nil {
		return nil
	}
	return w
}

// CollectCorpusContext runs the workloads under the stock governor and
// returns the training log (maxPerRunSec <= 0 runs each in full), with
// per-workload runs fanned out across a bounded worker pool (workers <= 0:
// GOMAXPROCS). The concatenated log is identical at any worker count.
func CollectCorpusContext(ctx context.Context, cfg DeviceConfig, loads []Workload, maxPerRunSec float64, workers int) ([]Record, error) {
	return core.CollectCorpusContext(ctx, cfg, loads, maxPerRunSec, workers)
}

// TrainPredictor fits the paper's REPTree predictor on a corpus.
func TrainPredictor(corpus []Record) (*Predictor, error) {
	return core.Train(corpus, nil)
}

// TrainPredictorWith fits a predictor using a custom model factory. A
// predictor that is not REPTree runs in-process only: it cannot be saved,
// and a sweep on a NewNetRunner refuses it with core.ErrNotREPTree.
func TrainPredictorWith(corpus []Record, factory func() Regressor) (*Predictor, error) {
	return core.Train(corpus, factory)
}

// NewUSTA returns the paper-configured controller (3 s period, ladder
// policy) for the given skin limit.
func NewUSTA(pred *Predictor, skinLimitC float64) *USTA {
	return core.NewUSTA(pred, skinLimitC)
}

// NewRecalibrator wraps a USTA controller with periodic predictor
// retraining from the phone's own instrumented log (see core.Recalibrator).
func NewRecalibrator(u *USTA) *core.Recalibrator { return core.NewRecalibrator(u) }

// StudyPopulation returns the ten study participants.
func StudyPopulation() []User { return users.StudyPopulation() }

// DefaultExperimentConfig returns the paper-scale experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// NewPipeline creates an experiment pipeline (corpus and predictor are
// built lazily and cached).
func NewPipeline(cfg ExperimentConfig) *Pipeline { return experiments.NewPipeline(cfg) }

// RunFig1 reproduces Figure 1 (per-user comfort limits / user study).
func RunFig1(pl *Pipeline) *experiments.Fig1Result { return experiments.RunFig1(pl) }

// RunFig2 reproduces Figure 2 (% time over limit, 11 settings).
func RunFig2(pl *Pipeline) *experiments.Fig2Result { return experiments.RunFig2(pl) }

// RunFig3 reproduces Figure 3 (prediction-model error rates).
func RunFig3(pl *Pipeline) *experiments.Fig3Result { return experiments.RunFig3(pl) }

// RunFig4 reproduces Figure 4 (Skype traces, baseline vs USTA).
func RunFig4(pl *Pipeline) *experiments.Fig4Result { return experiments.RunFig4(pl) }

// RunFig5 reproduces Figure 5 (user ratings and preferences).
func RunFig5(pl *Pipeline) *experiments.Fig5Result { return experiments.RunFig5(pl) }

// RunTable1 reproduces Table 1 (13 workloads × baseline/USTA).
func RunTable1(pl *Pipeline) *experiments.Table1Result { return experiments.RunTable1(pl) }

// Controller clamp policies (for USTA.Policy): the paper's ladder, the
// single-step and proportional ablations, and the margin-parameterized
// generalization.
var (
	// LadderPolicy is the paper's §III-B laddered clamp.
	LadderPolicy Policy = core.LadderPolicy
	// HardPolicy clamps straight to the minimum inside the margin.
	HardPolicy Policy = core.HardPolicy
	// ProportionalPolicy scales the clamp linearly with the margin.
	ProportionalPolicy Policy = core.ProportionalPolicy
)

// MarginLadder returns a ladder policy with a custom activation margin
// (the paper's controller is MarginLadder(2)).
func MarginLadder(marginC float64) Policy { return core.MarginLadder(marginC) }

// NewREPTreeRegressor returns the paper's run-time model (REPTree).
func NewREPTreeRegressor(seed int64) Regressor { return tree.New(seed) }

// NewM5PRegressor returns an M5P model tree.
func NewM5PRegressor() Regressor { return m5p.New() }

// NewLinearRegressor returns an OLS linear regression model.
func NewLinearRegressor() Regressor { return linreg.New() }

// NewMLPRegressor returns a WEKA-default multilayer perceptron.
func NewMLPRegressor(seed int64) Regressor { return mlp.New(seed) }

// SquareWave, StaircaseRamp, RandomPhases and Idle build synthetic
// workloads for custom experiments and training-corpus diversification.
func SquareWave(seed uint64, period, duty, high, low, dur float64) Workload {
	return workload.SquareWave(seed, period, duty, high, low, dur)
}

// StaircaseRamp steps CPU demand from lo to hi across the given steps.
func StaircaseRamp(seed uint64, lo, hi float64, steps int, stepDur float64) Workload {
	return workload.StaircaseRamp(seed, lo, hi, steps, stepDur)
}

// RandomPhases builds a seeded random phase mix.
func RandomPhases(seed uint64, n int, phaseDur float64) Workload {
	return workload.RandomPhases(seed, n, phaseDur)
}

// Idle builds a screen-off idle workload.
func Idle(dur float64) Workload { return workload.Idle(dur) }
