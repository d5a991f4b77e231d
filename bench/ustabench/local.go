package main

import (
	"context"
	"sync"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/users"
	wl "repro/internal/workload"
)

// localRep runs a generated spec once through repro.RunScenario with
// default options: spec bytes in, per-user comfort table out.
func localRep(ctx context.Context, specBytes []byte) (repOut, error) {
	t := time.Now()
	spec, err := repro.ParseScenario(specBytes)
	if err != nil {
		return repOut{}, err
	}
	res, err := repro.RunScenario(ctx, spec)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{start: t, cells: len(res.Results), simSec: simSeconds(res.Grid),
		comfort: comfortRows(res.ComfortByUser())}
	out.latency = time.Since(t)
	for _, r := range res.Results {
		if r.Err != nil {
			out.failedCells++
		}
	}
	return out, nil
}

// callStats accumulates one hot call site: total time, calls, and the
// per-call latency histogram.
type callStats struct {
	ns, calls int64
	hist      histogram
}

func (c *callStats) observe(start time.Time) {
	d := time.Since(start).Nanoseconds()
	c.ns += d
	c.calls++
	c.hist.add(d)
}

func (c *callStats) merge(o *callStats) {
	c.ns += o.ns
	c.calls += o.calls
	c.hist.merge(&o.hist)
}

// jobTrace is one running job's counters. A job runs on one fleet worker
// goroutine from its governor-factory call to its OnResult, so its
// counters need no lock.
type jobTrace struct {
	start           time.Time
	ctrl, gov, sink callStats
}

// tracedRun wraps a grid's jobs so each call into the governor, the
// controller and the sink is timed, and folds finished jobs' counters
// into run totals.
type tracedRun struct {
	rec    *recorder
	parent int // the fleet.Run span
	jobs   []*jobTrace
	pool   sync.Pool

	// Totals, written under fleet's serialized OnResult.
	ctrl, gov, sink callStats
	jobMs           []float64
}

func newTracedRun(rec *recorder, n int) *tracedRun {
	return &tracedRun{rec: rec, jobs: make([]*jobTrace, n),
		pool: sync.Pool{New: func() any { return new(jobTrace) }}}
}

type timedGovernor struct {
	governor.Governor
	st *callStats
}

func (g timedGovernor) NextLevel(s governor.State) int {
	t := time.Now()
	lvl := g.Governor.NextLevel(s)
	g.st.observe(t)
	return lvl
}

type timedController struct {
	device.Controller
	st *callStats
}

func (c timedController) Act(p *device.Phone) {
	t := time.Now()
	c.Controller.Act(p)
	c.st.observe(t)
}

type timedSink struct {
	next sink.Sink
	run  *tracedRun
}

func (s timedSink) Accept(job sink.JobID, smp device.Sample) {
	t := time.Now()
	s.next.Accept(job, smp)
	s.run.jobs[job].sink.observe(t)
}

func (s timedSink) Close() error { return s.next.Close() }

// wrap returns copies of jobs whose factories build timed governors and
// controllers. Jobs on the stock governor get the same stock governor
// through fleet.GovernorFactory, so every job's governor is wrapped and
// the job's clock starts at its governor-factory call.
func (tr *tracedRun) wrap(jobs []fleet.Job) ([]fleet.Job, error) {
	out := make([]fleet.Job, len(jobs))
	for i, job := range jobs {
		newGov := job.Governor
		if newGov == nil {
			cfg := device.DefaultConfig()
			if job.Device != nil {
				cfg = *job.Device
			}
			freqs := make([]float64, len(cfg.SoC.OPPs))
			for k, o := range cfg.SoC.OPPs {
				freqs[k] = o.FreqMHz
			}
			f, err := fleet.GovernorFactory("ondemand", freqs)
			if err != nil {
				return nil, err
			}
			newGov = f
		}
		job.Governor = func() governor.Governor {
			jt := tr.pool.Get().(*jobTrace)
			*jt = jobTrace{start: time.Now()}
			tr.jobs[i] = jt
			return timedGovernor{newGov(), &jt.gov}
		}
		if newCtrl := job.Controller; newCtrl != nil {
			job.Controller = func(u users.User) device.Controller {
				c := newCtrl(u)
				if c == nil {
					return nil
				}
				return timedController{c, &tr.jobs[i].ctrl}
			}
		}
		out[i] = job
	}
	return out, nil
}

// done closes job i's span and folds its counters into the totals.
func (tr *tracedRun) done(i int) {
	jt := tr.jobs[i]
	if jt == nil { // failed before its governor was built
		return
	}
	end := time.Now()
	tr.rec.add("job", tr.parent, i, jt.start, end)
	tr.jobMs = append(tr.jobMs, ms(end.Sub(jt.start)))
	tr.ctrl.merge(&jt.ctrl)
	tr.gov.merge(&jt.gov)
	tr.sink.merge(&jt.sink)
	tr.jobs[i] = nil
	tr.pool.Put(jt)
}

// localTrace is the traced pass over one generated spec.
type localTrace struct {
	comfort     []obs.Comfort
	cells       int
	failedCells int
	wall        time.Duration
	layer       map[string]float64
}

// tracedLocal runs a generated spec through the same public calls as
// repro.RunScenario with default options — predictor self-training,
// Spec.Expand, fleet.New(cfg).Run, Flatten, the trace-free violation sink
// and ComfortByUser — with every layer boundary timed. The rep's spans
// (scenario.parse, core.train, scenario.expand, fleet.Run, analytics)
// tile its wall time.
func tracedLocal(ctx context.Context, specBytes []byte, rec *recorder) (*localTrace, error) {
	t0 := time.Now()
	repID := rec.reserve("rep", -1, t0)
	spec, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, err
	}
	tParsed := time.Now()
	rec.add("scenario.parse", repID, -1, t0, tParsed)

	devCfg := device.DefaultConfig()
	var pred *core.Predictor
	if spec.NeedsPredictor() {
		corpusSeed := spec.Predictor.CorpusSeed
		if corpusSeed == 0 {
			corpusSeed = 42
		}
		bs := wl.Benchmarks(corpusSeed)
		loads := make([]wl.Workload, len(bs))
		for i, b := range bs {
			loads[i] = b
		}
		corpus, err := core.CollectCorpusContext(ctx, devCfg, loads, spec.Predictor.CorpusPerRunSec, 0)
		if err != nil {
			return nil, err
		}
		if pred, err = core.Train(corpus, nil); err != nil {
			return nil, err
		}
	}
	tTrained := time.Now()
	rec.add("core.train", repID, -1, tParsed, tTrained)

	grid, err := spec.Expand(scenario.Env{Device: &devCfg, Predictor: pred})
	if err != nil {
		return nil, err
	}
	tr := newTracedRun(rec, len(grid.Jobs))
	jobs, err := tr.wrap(grid.Jobs)
	if err != nil {
		return nil, err
	}
	tExpanded := time.Now()
	rec.add("scenario.expand", repID, -1, tTrained, tExpanded)

	cfg := fleet.Config{Seed: spec.Seeds.Base, OnResult: func(res fleet.JobResult) { tr.done(res.Index) }}
	var vs *analytics.ViolationSink
	if spec.TraceFree {
		vs = analytics.NewViolationSink(grid.Limits())
		cfg.Sink = timedSink{next: vs, run: tr}
	}
	fl := fleet.New(cfg)
	tr.parent = rec.reserve("fleet.Run", repID, tExpanded)
	results := fl.Run(ctx, jobs)
	tRan := time.Now()
	rec.finish(tr.parent, tRan)

	stats, err := analytics.Flatten(grid, results)
	if err != nil {
		return nil, err
	}
	if vs != nil {
		vs.Apply(stats)
	}
	comfort := comfortRows(analytics.ComfortByUser(stats))
	tDone := time.Now()
	rec.add("analytics", repID, -1, tRan, tDone)
	rec.finish(repID, tDone)

	lt := &localTrace{comfort: comfort, cells: len(results), wall: tDone.Sub(t0)}
	for _, r := range results {
		if r.Err != nil {
			lt.failedCells++
		}
	}
	runWall := tRan.Sub(tExpanded)
	var jobNs float64
	for _, m := range tr.jobMs {
		jobNs += m * 1e6
	}
	// Device self time is the job's time not spent in the controller,
	// governor or sink, so the self times of the five sum to the job spans
	// and their share of workers × wall is fleet.busy_frac.
	deviceNs := jobNs - float64(tr.ctrl.ns+tr.gov.ns+tr.sink.ns)
	lt.layer = map[string]float64{
		"scenario.expand_ms":         ms(tParsed.Sub(t0) + tExpanded.Sub(tTrained)),
		"core.train_ms":              ms(tTrained.Sub(tParsed)),
		"core.act_ns_p50":            tr.ctrl.hist.quantile(0.5),
		"core.act_calls":             float64(tr.ctrl.calls),
		"governor.next_level_ns_p50": tr.gov.hist.quantile(0.5),
		"governor.calls":             float64(tr.gov.calls),
		"fleet.job_ms_p50":           quantile(tr.jobMs, 0.5),
		"fleet.job_ms_p99":           quantile(tr.jobMs, 0.99),
		"fleet.busy_frac":            jobNs / (float64(fl.Workers()) * float64(runWall)),
		"device.self_ns_per_sim_s":   deviceNs / simSeconds(grid),
		"sink.accept_ns_p50":         tr.sink.hist.quantile(0.5),
		"sink.samples":               float64(tr.sink.calls),
		"analytics.flatten_ms":       ms(tDone.Sub(tRan)),
	}
	return lt, nil
}
