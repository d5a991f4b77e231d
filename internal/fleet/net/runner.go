package net

import (
	"context"
	"errors"
	stdnet "net"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// DefaultHeartbeatTimeout is how long the coordinator tolerates a silent
// worker connection before declaring the connection lost. Sample, result
// and heartbeat frames all refresh it, so only a worker that stopped
// making progress and stopped pulsing trips it.
const DefaultHeartbeatTimeout = 5 * DefaultHeartbeatInterval

// DefaultDialTimeout bounds connection establishment plus the hello
// handshake per worker connection.
const DefaultDialTimeout = 5 * time.Second

// defaultMaxRetries is how many times a work item survives worker loss
// before its remaining jobs fail.
const defaultMaxRetries = 3

// Recovery defaults. A host is never retired by a single transport
// failure: its supervisor redials under exponential backoff with seeded
// jitter, opens a circuit breaker after breakerThreshold consecutive
// failures, and probes half-open after a growing cooldown.
const (
	DefaultBackoffBase     = 100 * time.Millisecond
	DefaultBackoffMax      = 5 * time.Second
	breakerThreshold       = 3
	DefaultBreakerCooldown = 2 * time.Second
	// DefaultAllDeadDeadline is how long the run tolerates zero connected
	// hosts (everything down or cooling off) before giving up on the
	// network: remaining jobs fail, or — with FallbackLocal — run on the
	// in-process LocalRunner.
	DefaultAllDeadDeadline = 30 * time.Second
)

// errNoSpec marks jobs that cannot cross a process boundary.
var errNoSpec = errors.New("net: job has no serializable spec (Job.Spec); only scenario-expanded or spec-carrying jobs can run on a worker process")

// Runner is the multi-process fleet.Runner: it partitions jobs into work
// items, dispatches them to ustaworker daemons over TCP (New), and merges
// the streamed frames back into submission order. Seeds are resolved
// coordinator-side through fleet.EffectiveSeed before dispatch, so a
// distributed run is byte-identical to LocalRunner — including after a
// worker dies mid-shard and its unreported jobs are retried on a
// surviving host (telemetry for a job is buffered until its result
// arrives and dropped when its attempt is lost, so a half-streamed attempt
// leaves no trace).
//
// The runner is self-healing: each host runs under a supervisor that
// redials after transport loss with exponential backoff and seeded
// jitter, trips a circuit breaker (closed → open → half-open probe) after
// consecutive failures, and re-admits the host mid-run once it recovers.
// Hosts pull work items from one queue, so a slow host takes fewer of
// them. When no host stays connected past AllDeadDeadline the remaining
// jobs fail — or, with FallbackLocal, run on the in-process LocalRunner
// with the same pinned seeds. Run returns each run's per-host state as
// fleet.RunStats. A Runner holds configuration only, so concurrent runs
// may share one. The zero value is not useful; set Hosts.
type Runner struct {
	// Hosts is the static worker inventory, "host:port" per entry.
	Hosts []string
	// ShardSize is the number of jobs per dispatch unit (<= 0: the batch is
	// split into about four items per host, so one slow shard cannot strand
	// the run behind it).
	ShardSize int
	// MaxRetries is how many times a work item is re-dispatched after
	// worker loss before its unreported jobs fail (<= 0: 3), so the
	// item's (MaxRetries+1)th loss fails them.
	MaxRetries int
	// HeartbeatTimeout is the silent-connection budget before a connection
	// is declared lost (<= 0: DefaultHeartbeatTimeout). Write deadlines on
	// control frames derive from it too.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds dial + hello handshake (<= 0: DefaultDialTimeout).
	DialTimeout time.Duration
	// BackoffBase is the first redial delay after a host failure
	// (<= 0: DefaultBackoffBase). Doubles per consecutive failure up to
	// BackoffMax, plus seeded jitter.
	BackoffBase time.Duration
	// BackoffMax caps the redial backoff (<= 0: DefaultBackoffMax).
	BackoffMax time.Duration
	// BreakerCooldown is the first open-breaker cooldown before a
	// half-open probe (<= 0: DefaultBreakerCooldown). Doubles while the
	// probe keeps failing.
	BreakerCooldown time.Duration
	// AllDeadDeadline is how long the run tolerates zero connected hosts
	// before declaring the fleet down (<= 0: DefaultAllDeadDeadline).
	AllDeadDeadline time.Duration
	// FallbackLocal, when set, runs the remaining jobs on the in-process
	// LocalRunner instead of failing them once the fleet is declared down.
	// Seeds were resolved before dispatch, so fallback output is
	// byte-identical to what the workers would have produced.
	FallbackLocal bool
	// Logf, when set, receives one line per host-level event (connect,
	// loss, backoff, breaker transition, retry). Nil is silent.
	Logf func(format string, args ...any)
}

// New creates a networked runner over the given worker addresses.
func New(hosts []string) *Runner { return &Runner{Hosts: hosts} }

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) maxRetries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	return defaultMaxRetries
}

func (r *Runner) hbTimeout() time.Duration {
	if r.HeartbeatTimeout > 0 {
		return r.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (r *Runner) backoffBase() time.Duration {
	if r.BackoffBase > 0 {
		return r.BackoffBase
	}
	return DefaultBackoffBase
}

func (r *Runner) backoffMax() time.Duration {
	if r.BackoffMax > 0 {
		return r.BackoffMax
	}
	return DefaultBackoffMax
}

func (r *Runner) breakerCooldown() time.Duration {
	if r.BreakerCooldown > 0 {
		return r.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (r *Runner) allDeadDeadline() time.Duration {
	if r.AllDeadDeadline > 0 {
		return r.AllDeadDeadline
	}
	return DefaultAllDeadDeadline
}

// runState is the merge side of a run: results, received tracking, and
// the per-job telemetry buffers that make retries invisible to the sink.
// At most one attempt of a job is live, so a job's buffer holds that
// attempt's samples; a lost attempt's are dropped before the requeue, and
// each job's samples reach the sink exactly once.
type runState struct {
	mu       sync.Mutex
	results  []fleet.JobResult
	received []bool
	jobs     []fleet.Job
	report   func(fleet.JobResult)
	sink     sink.Sink
	buf      map[int][][]byte // sample frames' packed blocks, by job
}

// sample keeps one sample frame's packed block, as ReadFrame returned it,
// until the job's result arrives.
func (st *runState) sample(idx int, block []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if idx < 0 || idx >= len(st.received) || st.received[idx] {
		return // out of range, or the job already reported
	}
	st.buf[idx] = append(st.buf[idx], block)
}

// result records a job result, flushing the job's buffered telemetry
// first, block by block, to the sink (as is when it takes packed blocks).
// A result for a job already reported is dropped.
func (st *runState) result(rf *wire.ResultFrame) {
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := rf.Index
	if idx < 0 || idx >= len(st.received) || st.received[idx] {
		return
	}
	if st.sink != nil {
		for _, block := range st.buf[idx] {
			sink.AcceptBlock(st.sink, sink.JobID(idx), block)
		}
	}
	delete(st.buf, idx)
	st.results[idx] = rf.Decode()
	st.received[idx] = true
	st.report(st.results[idx])
}

// failSpecs marks every unreceived job in specs failed with err.
func (st *runState) failSpecs(specs []fleet.JobSpec, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range specs {
		idx := specs[i].Index
		if st.received[idx] {
			continue
		}
		delete(st.buf, idx)
		st.results[idx] = errResult(idx, &st.jobs[idx], err)
		st.received[idx] = true
		st.report(st.results[idx])
	}
}

// unreported builds the retry spec set for a lost attempt of specs: the
// jobs it never reported, with their half-streamed telemetry dropped.
func (st *runState) unreported(specs []fleet.JobSpec) []fleet.JobSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	var retry []fleet.JobSpec
	for i := range specs {
		idx := specs[i].Index
		if st.received[idx] {
			continue
		}
		delete(st.buf, idx)
		retry = append(retry, specs[i])
	}
	return retry
}

// errResult matches the local runner's failed-job shape.
func errResult(i int, job *fleet.Job, err error) fleet.JobResult {
	res := fleet.JobResult{Index: i, Name: job.Name, User: job.User, Err: err}
	if res.Name == "" && job.Workload != nil {
		res.Name = job.Workload.Name()
	}
	return res
}

// Run implements fleet.Runner. See the type comment for the contract.
func (r *Runner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) ([]fleet.JobResult, fleet.RunStats) {
	tracker := newStatsTracker(r.Hosts)
	return r.run(ctx, cfg, jobs, tracker), tracker.snapshot()
}

// run is Run recording into tracker, which the caller may snapshot while
// the run is in flight.
func (r *Runner) run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job, tracker *statsTracker) []fleet.JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]fleet.JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	report := fleet.ResultReporter(cfg, len(jobs))
	st := &runState{
		results:  results,
		received: make([]bool, len(jobs)),
		jobs:     jobs,
		report:   report,
		sink:     cfg.Sink,
		buf:      make(map[int][][]byte),
	}
	failAll := func(err error) []fleet.JobResult {
		for i := range jobs {
			if !st.received[i] {
				results[i] = errResult(i, &jobs[i], err)
				report(results[i])
			}
		}
		return results
	}
	if len(r.Hosts) == 0 {
		return failAll(errors.New("net: no worker hosts configured"))
	}
	// Seed and index every spec'd job now — determinism must not depend on
	// which host runs it, how many attempts it takes, or whether it ends
	// up on the local fallback. Spec-less jobs cannot cross the wire and
	// fail immediately.
	specs := make([]fleet.JobSpec, 0, len(jobs))
	seedOf := make(map[int]int64, len(jobs))
	for i := range jobs {
		if jobs[i].Spec == nil {
			st.results[i] = errResult(i, &jobs[i], errNoSpec)
			st.received[i] = true
			report(st.results[i])
			continue
		}
		spec := *jobs[i].Spec
		spec.Index = i
		spec.Seed = fleet.EffectiveSeed(cfg.Seed, i, &jobs[i])
		seedOf[i] = spec.Seed
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return results
	}

	// Partition into work items: a few per host so the queue can rebalance
	// around slow or recovering workers.
	size := r.ShardSize
	if size <= 0 {
		size = (len(specs) + 4*len(r.Hosts) - 1) / (4 * len(r.Hosts))
	}
	var items []*itemState
	for start := 0; start < len(specs); start += size {
		end := start + size
		if end > len(specs) {
			end = len(specs)
		}
		items = append(items, &itemState{specs: specs[start:end]})
	}
	d := newDispatcher(items, r, tracker)

	// Cancellation: poke every open connection's read deadline so blocked
	// slots wake immediately, observe ctx, send a best-effort cancel frame
	// and tear down.
	var connMu sync.Mutex
	conns := make(map[stdnet.Conn]struct{})
	trackConn := func(c stdnet.Conn, add bool) {
		connMu.Lock()
		if add {
			conns[c] = struct{}{}
		} else {
			delete(conns, c)
		}
		connMu.Unlock()
	}
	stop := context.AfterFunc(ctx, func() {
		d.cancel()
		connMu.Lock()
		for c := range conns {
			c.SetReadDeadline(time.Now())
		}
		connMu.Unlock()
	})
	defer stop()

	// Each worker's pool width; <= 0: the worker's own.
	req := baseRequest{pred: cfg.Predictor, workers: cfg.Workers, wantSamples: cfg.Sink != nil}
	var wg sync.WaitGroup
	for _, addr := range r.Hosts {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			r.superviseHost(ctx, addr, d, st, req, trackConn, tracker, cfg.Seed)
		}(addr)
	}
	wg.Wait()

	if d.isFleetDown() && r.FallbackLocal && ctx.Err() == nil {
		n := r.runFallback(ctx, cfg, st, seedOf)
		tracker.fallback(n)
		r.logf("net: fleet down past %v; ran %d remaining jobs on the local fallback", r.allDeadDeadline(), n)
	}

	// Whatever is still unreceived after every supervisor exited can never
	// run: the fleet went down (without fallback) or the run was
	// cancelled.
	strandErr := d.strandErr(ctx)
	st.mu.Lock()
	for i := range jobs {
		if !st.received[i] {
			st.results[i] = errResult(i, &jobs[i], strandErr)
			st.received[i] = true
			st.report(st.results[i])
		}
	}
	st.mu.Unlock()
	r.logf("net: run stats: %s", tracker.snapshot())
	return results
}

// runFallback executes the still-unreceived jobs on the in-process
// LocalRunner with their already-resolved seeds pinned, routing telemetry
// and results through the same merge state, and returns how many jobs it
// ran. Graceful degradation: a fleet-wide outage costs locality, not the
// run.
func (r *Runner) runFallback(ctx context.Context, cfg fleet.Config, st *runState, seedOf map[int]int64) int {
	var subJobs []fleet.Job
	var subIdx []int
	st.mu.Lock()
	for i := range st.jobs {
		if st.received[i] {
			continue
		}
		j := st.jobs[i]
		j.Seed = seedOf[i] // resolved pre-dispatch; pins byte-identity
		subJobs = append(subJobs, j)
		subIdx = append(subIdx, i)
	}
	st.mu.Unlock()
	if len(subJobs) == 0 {
		return 0
	}
	sub := fleet.Config{Workers: cfg.Workers, Seed: cfg.Seed}
	if st.sink != nil {
		sub.Sink = sink.Func(func(id sink.JobID, s device.Sample) {
			st.sink.Accept(sink.JobID(subIdx[int(id)]), s)
		})
	}
	res, _ := fleet.LocalRunner{}.Run(ctx, sub, subJobs)
	st.mu.Lock()
	for k := range res {
		idx := subIdx[k]
		res[k].Index = idx
		st.results[idx] = res[k]
		st.received[idx] = true
		st.report(res[k])
	}
	st.mu.Unlock()
	return len(subJobs)
}

// baseRequest carries the per-run constants every shard request shares.
type baseRequest struct {
	pred        *fleet.EncodedPredictor
	workers     int
	wantSamples bool
}
