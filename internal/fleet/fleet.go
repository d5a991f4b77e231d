package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/sink"
	"repro/internal/users"
	"repro/internal/workload"
)

// Config parameterizes one batch run: everything that varies between runs
// lives here, so a Runner is configured once and never copied or mutated
// per run. The in-process LocalRunner consumes it directly, while the
// multi-process runner (internal/fleet/net, over worker daemons) forwards
// Workers and Predictor to each worker and services
// Sink/OnProgress/OnResult on the coordinator side.
type Config struct {
	// Workers bounds simultaneous simulations (<= 0: GOMAXPROCS; see
	// NormalizeWorkers). Under a networked runner a positive value is the
	// pool width inside each worker daemon; left unset, each daemon uses
	// its own GOMAXPROCS.
	Workers int
	// Seed is the base for derived per-job seeds (jobs with an explicit
	// Seed ignore it). Deriving from (Seed, job index) — never from worker
	// identity or scheduling — is what makes Run's output independent of
	// Workers, and of how jobs are partitioned across processes.
	Seed int64
	// OnProgress, when set, is called after each job completes with the
	// number of finished jobs and the batch size. Calls are serialized.
	OnProgress func(done, total int)
	// OnResult, when set, receives each JobResult as its job completes, in
	// completion order (Run's return value stays in submission order).
	// Calls are serialized with OnProgress; the result passed is the same
	// value Run will return for that index.
	OnResult func(JobResult)
	// Sink, when set, receives every telemetry sample of every job, tagged
	// with the job's index (sink.JobID matches JobResult.Index). Accept is
	// called concurrently from worker goroutines; the built-ins in package
	// sink synchronize internally. Combined with Job.TraceFree this is the
	// O(1)-memory path for large sweeps: samples stream out as they are
	// produced and no per-job Trace is retained. The fleet never closes the
	// sink — the caller owns its lifecycle. The networked runner delivers
	// the same stream: workers forward samples over their connection and
	// the coordinator replays them into this sink.
	Sink sink.Sink
	// Runner executes the batch (nil: LocalRunner). Runners must honor the
	// determinism contract: same jobs, same Seed → byte-identical results
	// at any parallelism.
	Runner Runner
	// Predictor is the encoded predictor (wire.EncodePredictor) that
	// rebuilds "usta" job specs in other processes; nil carries none.
	// In-process runs ignore it — their jobs' controller closures already
	// hold the predictor. It travels encoded because package core imports
	// fleet.
	Predictor *EncodedPredictor
}

// Runner executes a batch of jobs under a batch configuration and returns
// one result per job in submission order, together with what it measured
// while running them. LocalRunner is the in-process worker pool;
// internal/fleet/net adds the multi-process implementation.
type Runner interface {
	Run(ctx context.Context, cfg Config, jobs []Job) ([]JobResult, RunStats)
}

// RunStats is what a Runner measured while it ran one batch: per-host
// supervisor state plus the fleet-level local-fallback counters. The
// in-process LocalRunner has no hosts and returns the zero RunStats.
type RunStats struct {
	Hosts        []HostStats `json:"hosts"`
	FallbackUsed bool        `json:"fallback_used,omitempty"`
	FallbackJobs int         `json:"fallback_jobs,omitempty"`
}

// HostStats is one worker host's supervisor state during a run. Breaker
// is "closed", "open" or "half-open".
type HostStats struct {
	Addr             string `json:"addr"`
	Connected        bool   `json:"connected"`
	Breaker          string `json:"breaker"`
	ConnectAttempts  int    `json:"connect_attempts"`
	Redials          int    `json:"redials"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Capacity         int    `json:"capacity"`
	SlotsConnected   int    `json:"slots_connected"`
	SlotShortfall    int    `json:"slot_shortfall"`
	ItemsCompleted   int    `json:"items_completed"`
	// PredictorShips counts the shard requests that carried the predictor
	// document; a worker that already held it is sent its ID alone.
	PredictorShips int    `json:"predictor_ships"`
	LastErr        string `json:"last_err,omitempty"`
}

// String renders the stats as one log-friendly line.
func (s RunStats) String() string {
	var b strings.Builder
	if s.FallbackUsed {
		fmt.Fprintf(&b, "fallback=%d", s.FallbackJobs)
	}
	for _, h := range s.Hosts {
		if b.Len() > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s: breaker=%s connected=%v dials=%d redials=%d slots=%d/%d items=%d predictor_ships=%d",
			h.Addr, h.Breaker, h.Connected, h.ConnectAttempts, h.Redials, h.SlotsConnected, h.Capacity, h.ItemsCompleted, h.PredictorShips)
		if h.SlotShortfall > 0 {
			fmt.Fprintf(&b, " shortfall=%d", h.SlotShortfall)
		}
		if h.LastErr != "" {
			fmt.Fprintf(&b, " lastErr=%q", h.LastErr)
		}
	}
	return b.String()
}

// Job is one unit of fleet work: a user running a workload on a device
// under an optional governor and thermal controller.
type Job struct {
	// Name labels the job in results; empty names are synthesized from the
	// workload and controller.
	Name string
	// User is the participant this run simulates. Controller factories
	// receive it, so per-user personalization (the paper's whole point)
	// lives in one place. The zero User means "default user".
	User users.User
	// Workload is the demand trace to execute (required).
	Workload workload.Workload
	// Device is the handset configuration; nil selects
	// device.DefaultConfig. A non-nil config is used as given (and
	// validated by the device layer), so partial configs fail with a
	// descriptive per-job error instead of being silently replaced. The
	// pointed-to config must not be mutated while the batch runs: the
	// fleet keys its phone-allocation pool on it.
	Device *device.Config
	// Governor, when non-nil, builds the job's cpufreq governor. A factory
	// rather than an instance: governors are stateful and each job needs
	// its own.
	Governor func() governor.Governor
	// Controller, when non-nil, builds the job's thermal controller from
	// the job's user (return nil for a stock phone).
	Controller func(u users.User) device.Controller
	// DurSec truncates the run (<= 0: full workload duration).
	DurSec float64
	// TraceFree skips Trace and Records retention on the result while
	// keeping every aggregate (peak temperatures, averages, energy, work)
	// bit-identical to a traced run. Population sweeps that only consume
	// aggregates should set it: per-second history dominates the memory of
	// large batches. Controllers that consume the full Records history
	// (the recalibrating wrapper) need traced runs; see
	// device.Phone.SetTraceFree.
	TraceFree bool
	// Seed, when non-zero, pins the device seed (zero is "unset"
	// throughout this codebase, so a literal zero seed cannot be pinned
	// here — set Device.Seed for that). When zero, a non-zero
	// Device.Seed is honored as given, matching Session semantics;
	// otherwise the fleet derives a seed from its base seed and the job
	// index.
	Seed int64
	// Spec, when non-nil, is the serializable description of this job —
	// what a shard worker needs to rebuild it in another process. The
	// scenario expander populates it; hand-built jobs only need one to run
	// under a sharding runner (LocalRunner ignores it). The closures above
	// stay authoritative for in-process runs; Spec must describe the same
	// job.
	Spec *JobSpec
}

// JobResult is one job's outcome. Failures are per-job: a bad device config
// or a cancelled context yields an Err on the affected results instead of
// aborting the batch.
type JobResult struct {
	// Index is the job's position in the submitted slice; Run returns
	// results in submission order regardless of scheduling.
	Index int
	// Name echoes (or synthesizes) the job label.
	Name string
	// User echoes the job's participant.
	User users.User
	// SeedUsed is the device seed the run actually used, for reproducing a
	// single job outside the fleet.
	SeedUsed int64
	// Result is the aggregate run outcome (partial when Err is a context
	// error, nil when construction failed).
	Result *device.RunResult
	// Err is the job's failure, if any.
	Err error
}

// Fleet executes batches of independent simulation jobs on a Runner.
type Fleet struct {
	cfg Config
}

// New creates a fleet; a zero Config is valid and uses GOMAXPROCS workers
// on the in-process LocalRunner. Config.Workers is kept as configured —
// each Runner normalizes it at execution time, which lets a sharding
// runner distinguish "unset" (split the machine across processes) from an
// explicit per-process width.
func New(cfg Config) *Fleet {
	return &Fleet{cfg: cfg}
}

// Workers reports the effective worker-pool width.
func (f *Fleet) Workers() int { return NormalizeWorkers(f.cfg.Workers) }

// Run executes all jobs on the configured Runner (default: the in-process
// LocalRunner) and returns one result per job, in submission order. Output
// is deterministic: per-job seeds derive from the job index, so the same
// jobs produce identical results at any worker count — or any shard
// partitioning. A cancelled context marks the remaining jobs' results with
// the context error rather than failing the batch. The runner's RunStats
// are dropped; call the Runner directly to keep them.
func (f *Fleet) Run(ctx context.Context, jobs []Job) []JobResult {
	r := f.cfg.Runner
	if r == nil {
		r = LocalRunner{}
	}
	results, _ := r.Run(ctx, f.cfg, jobs)
	return results
}

// NormalizeWorkers resolves a configured parallelism knob — a worker-pool
// width or a daemon's shard capacity. Zero and negative values mean "one
// per available CPU" (GOMAXPROCS); positive values are taken as given.
// Every layer that accepts such a knob (fleet.Config.Workers, ForEach,
// net.Server.Capacity) normalizes through this one helper so the
// semantics cannot drift between call sites.
func NormalizeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// LocalRunner is the in-process Runner: a bounded goroutine pool with
// per-job position-derived seeding and sync.Pool-backed phone reuse across
// jobs that share a device configuration.
type LocalRunner struct{}

// Run executes the batch on a goroutine pool of cfg.Workers. It has no
// hosts to report on, so its RunStats are zero.
func (LocalRunner) Run(ctx context.Context, cfg Config, jobs []Job) ([]JobResult, RunStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]JobResult, len(jobs))
	pool := newPhonePool()
	report := ResultReporter(cfg, len(jobs))
	ForEach(len(jobs), cfg.Workers, func(i int) {
		results[i] = runJob(ctx, &cfg, pool, i, jobs[i])
		report(results[i])
	})
	return results, RunStats{}
}

// ResultReporter returns the serialized completion-callback dispatcher for
// a batch of total jobs: each call delivers the result to OnResult, then
// the incremented done count to OnProgress, under one lock. Every Runner
// reports through it, so the documented callback contract lives in one
// place. The returned function is a no-op when the config has no
// callbacks.
func ResultReporter(cfg Config, total int) func(JobResult) {
	if cfg.OnResult == nil && cfg.OnProgress == nil {
		return func(JobResult) {}
	}
	var mu sync.Mutex
	done := 0
	return func(res JobResult) {
		mu.Lock()
		done++
		if cfg.OnResult != nil {
			cfg.OnResult(res)
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(done, total)
		}
		mu.Unlock()
	}
}

// EffectiveSeed resolves the device seed job i of a batch will use under
// the given base seed: an explicit Job.Seed wins, then a caller-pinned
// Device.Seed (Session semantics), then the position-derived seed. Both the
// local pool and the networked coordinator resolve seeds through this one
// function — that shared resolution is what keeps distributed runs
// byte-identical to local ones.
func EffectiveSeed(base int64, i int, job *Job) int64 {
	if job.Seed != 0 {
		return job.Seed
	}
	// Only a caller-provided config can pin the seed; the fallback default
	// config's own seed must not suppress per-job derivation, or every
	// nil-Device job in a population would share one noise stream.
	if job.Device != nil && job.Device.Seed != 0 {
		return job.Device.Seed
	}
	return DeriveSeed(base, i)
}

// runJob builds and executes one job's phone, recycling phone allocations
// through the batch's pool.
func runJob(ctx context.Context, cfg *Config, pool *phonePool, i int, job Job) JobResult {
	r := JobResult{Index: i, Name: job.Name, User: job.User}
	if job.Workload == nil {
		r.Err = fmt.Errorf("fleet: job %d has no workload", i)
		return r
	}
	if r.Name == "" {
		r.Name = job.Workload.Name()
	}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	phone, seed, err := preparePhone(cfg, pool, i, &job)
	r.SeedUsed = seed
	if err != nil {
		r.Err = err
		return r
	}
	r.Result, r.Err = phone.RunEventContext(ctx, job.Workload, job.DurSec)
	pool.put(job.Device, phone)
	return r
}

// preparePhone resolves job i's seed and builds (or recycles through the
// batch pool) its fully configured phone: governor, controller, sink
// observer and trace mode installed.
func preparePhone(cfg *Config, pool *phonePool, i int, job *Job) (*device.Phone, int64, error) {
	seed := EffectiveSeed(cfg.Seed, i, job)
	var gov governor.Governor
	if job.Governor != nil {
		gov = job.Governor()
	}
	phone := pool.get(job.Device)
	if phone != nil {
		phone.Reset(gov, seed)
	} else {
		// Pool miss: materialize the device configuration only here — the
		// reuse path needs just the seed, and copying DefaultConfig per
		// job would undercut the pool's allocation win.
		devCfg := device.DefaultConfig()
		if job.Device != nil {
			devCfg = *job.Device
		}
		devCfg.Seed = seed
		var err error
		phone, err = device.New(devCfg, gov)
		if err != nil {
			return nil, seed, err
		}
	}
	if job.Controller != nil {
		if c := job.Controller(job.User); c != nil {
			phone.SetController(c)
		}
	}
	if cfg.Sink != nil {
		id := sink.JobID(i)
		phone.SetObserver(func(s device.Sample) { cfg.Sink.Accept(id, s) })
	}
	if job.TraceFree {
		phone.SetTraceFree(true)
	}
	return phone, seed, nil
}

// DeriveSeed maps (base, index) to a device seed via a splitmix64 mix, the
// same construction package workload uses for jitter. The result depends
// only on its arguments — never on scheduling — and is never zero (zero
// would read as "unset" downstream).
func DeriveSeed(base int64, index int) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(index+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1
	}
	return s
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (normalized via NormalizeWorkers). It is the fleet's
// scheduling primitive, exported for phone-free fan-out such as
// cross-validating prediction models or collecting training corpora. fn
// must handle its own synchronization for shared state; writing to element
// i of a pre-sized slice is safe.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = NormalizeWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FirstError returns the first job error in index order, or nil.
func FirstError(results []JobResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("fleet: job %d (%s): %w", r.Index, r.Name, r.Err)
		}
	}
	return nil
}
