// Package obs is the live observability layer over a running fleet
// sweep: a streaming aggregation engine that consumes the same telemetry
// stream the analytics layer consumes post-hoc, and maintains rolling
// fleet-wide state in O(jobs) memory — fixed-bin skin-temperature
// histograms per user class, the ambient × limit violation heat map,
// per-job progress, and a time-bucketed activity ring for sparklines.
//
// The design constraint is determinism: the final snapshot of a run must
// be byte-equal to what internal/analytics computes post-hoc from the
// same results. The Aggregator therefore does no floating-point
// aggregation of its own — each completed job arrives with the violation
// counters the sweep counted for it (the same ones the sweep's own stats
// and ledger use), and every snapshot reduces the per-job stats with the
// real analytics functions (ComfortByUser, ViolationHeatMap). The
// per-sample extras it folds itself (histograms, sparklines, sample
// count) are integer-only and order-independent.
package obs

import (
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/scenario"
	"repro/internal/sink"
)

// Aggregator is one run's streaming aggregation state. Wire it as (or
// tee it into) the fleet sink, report completions through JobDone, and
// mark the end of the run with Finish; Snapshot may be called at any
// time from any goroutine. The zero value is not usable — construct
// with NewAggregator.
type Aggregator struct {
	// FleetFn, when set, is polled at snapshot time for a
	// JSON-marshalable fleet/host gauge payload (e.g. the networked
	// runner's fleet.RunStats). It is called without the aggregator lock
	// held and must be safe for concurrent use.
	FleetFn func() any

	mu      sync.Mutex
	stats   []analytics.JobStat
	limits  []float64
	jobDone []bool
	classOf []int // job index → hists index
	hists   []ClassHist
	spark   sparkRing
	samples int64
	done    int
	failed  int
	status  string
	final   bool
	seq     int
	watch   map[chan struct{}]struct{}
	now     func() time.Time
	// unix is the wall clock's unix second, read by readClock: once per
	// wire.SampleBatch samples in Accept, and at every settle and
	// Snapshot. clockLeft counts the samples Accept may still stamp with
	// it.
	unix      int64
	clockLeft int
}

// NewAggregator creates an aggregator for one expanded grid. Job metadata
// (grid coordinates, user classes, limits) is fixed up front; everything
// else streams in.
func NewAggregator(grid *scenario.Grid) *Aggregator {
	a := &Aggregator{
		stats:   make([]analytics.JobStat, len(grid.Points)),
		limits:  grid.Limits(),
		jobDone: make([]bool, len(grid.Points)),
		classOf: make([]int, len(grid.Points)),
		status:  "running",
		watch:   make(map[chan struct{}]struct{}),
		now:     time.Now,
	}
	histIdx := map[string]int{}
	for i, pt := range grid.Points {
		a.stats[i] = analytics.JobStat{Point: pt, OverFrac: nan(), MeanExcessC: nan()}
		hi, ok := histIdx[pt.UserID]
		if !ok {
			hi = len(a.hists)
			histIdx[pt.UserID] = hi
			a.hists = append(a.hists, newClassHist(pt.UserID, pt.LimitC))
		}
		a.classOf[i] = hi
	}
	return a
}

// Accept folds one telemetry sample into the per-sample extras
// (histograms, sparkline, sample count). It implements sink.Sink and is
// safe for concurrent use; samples for jobs outside the grid are ignored.
func (a *Aggregator) Accept(job sink.JobID, s device.Sample) {
	i := int(job)
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.stats) || a.jobDone[i] {
		return
	}
	a.hists[a.classOf[i]].add(s.SkinC, a.limits[i])
	a.samples++
	if a.clockLeft == 0 {
		a.readClock()
	}
	a.clockLeft--
	a.spark.sample(a.unix, s.SkinC)
}

// readClock refreshes the cached unix second and returns it. The caller
// holds a.mu.
func (a *Aggregator) readClock() int64 {
	a.unix = a.now().Unix()
	a.clockLeft = wire.SampleBatch
	return a.unix
}

// Close implements sink.Sink; the aggregator holds no external
// resources, and its state stays queryable after the run.
func (a *Aggregator) Close() error { return nil }

// JobDone records one live job's completion: the result (or error) joins
// the job's grid point, acc — the counters the sweep streamed for the
// job — is reduced exactly as the post-hoc path reduces it, and the
// sparkline ticks. Samples for the job arriving after JobDone are
// dropped, mirroring the telemetry Bus.
func (a *Aggregator) JobDone(res fleet.JobResult, acc analytics.ViolationAccum) {
	a.settle(res, acc, true)
}

// SeedJob restores one recovered cell: the ledgered result and its
// journaled counters settle exactly like a live completion, so a resumed
// run's final Aggregates stay byte-equal to an uninterrupted one.
// Sample-level extras (histograms, sparklines, sample count) are not
// restored — the pre-crash stream is gone and they sit outside the
// determinism pin. Call before the live subset starts streaming.
func (a *Aggregator) SeedJob(res fleet.JobResult, acc analytics.ViolationAccum) {
	a.settle(res, acc, false)
}

// settle marks job res.Index done with its result and violation counters,
// ticks the sparkline for a live completion and notifies watchers. An
// index outside the grid or a job already done changes nothing.
func (a *Aggregator) settle(res fleet.JobResult, acc analytics.ViolationAccum, live bool) {
	a.mu.Lock()
	i := res.Index
	if i < 0 || i >= len(a.stats) || a.jobDone[i] {
		a.mu.Unlock()
		return
	}
	st := &a.stats[i]
	st.Result = res.Result
	st.Err = res.Err
	acc.ApplyTo(st)
	a.jobDone[i] = true
	a.done++
	if res.Err != nil {
		a.failed++
	}
	now := a.readClock()
	if live {
		a.spark.job(now)
	}
	a.mu.Unlock()
	a.notify()
}

// Finish marks the run complete with its terminal status ("done",
// "failed", or "cancelled"). Snapshots taken afterwards carry Final=true
// and are stable: the aggregates they carry are the run's post-hoc
// analytics, byte for byte.
func (a *Aggregator) Finish(status string) {
	a.mu.Lock()
	a.status = status
	a.final = true
	a.mu.Unlock()
	a.notify()
}

// Progress is the cheap scalar view of the run — what /metrics scrapes
// and status lines want, without the analytics reduction Snapshot runs.
type Progress struct {
	Status  string
	Done    int
	Failed  int
	Total   int
	Samples int64
	Final   bool
}

// Progress returns the current scalar progress counters.
func (a *Aggregator) Progress() Progress {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Progress{Status: a.status, Done: a.done, Failed: a.failed,
		Total: len(a.stats), Samples: a.samples, Final: a.final}
}

// HistSnapshot returns a deep copy of the per-class skin histograms.
func (a *Aggregator) HistSnapshot() []ClassHist {
	a.mu.Lock()
	defer a.mu.Unlock()
	return copyHists(a.hists)
}

// Snapshot is one ordered frame of the SSE stream: monotonically
// increasing Seq, scalar progress, the deterministic Aggregates section,
// and the wall-clock-shaped extras (histograms, sparkline ring, fleet
// gauges) that live outside the determinism pin.
type Snapshot struct {
	Seq     int    `json:"seq"`
	Status  string `json:"status"`
	Final   bool   `json:"final"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Total   int    `json:"total"`
	Samples int64  `json:"samples"`
	// Aggregates is the deterministic section: on the final snapshot its
	// bytes equal the post-hoc analytics computation (AggregatesFromStats
	// over the flattened results).
	Aggregates Aggregates `json:"aggregates"`
	// SkinHist are the per-user-class fixed-bin skin-temperature
	// histograms (sample-level state the post-hoc path does not retain).
	SkinHist []ClassHist `json:"skin_hist"`
	// Spark is the recent-activity ring, oldest bucket first.
	Spark []SparkBucket `json:"spark,omitempty"`
	// Fleet is FleetFn's payload (e.g. fleet.RunStats), when wired.
	Fleet any `json:"fleet,omitempty"`
}

// Snapshot builds the current frame. Each call consumes one sequence
// number; frames read by one client are strictly ordered.
func (a *Aggregator) Snapshot() Snapshot {
	var fleetState any
	if fn := a.FleetFn; fn != nil {
		fleetState = fn()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	return Snapshot{
		Seq:        a.seq,
		Status:     a.status,
		Final:      a.final,
		Done:       a.done,
		Failed:     a.failed,
		Total:      len(a.stats),
		Samples:    a.samples,
		Aggregates: AggregatesFromStats(a.stats),
		SkinHist:   copyHists(a.hists),
		Spark:      a.spark.snapshot(a.readClock()),
		Fleet:      fleetState,
	}
}

// Watch registers for change notification: the returned channel receives
// (with at-least-once coalescing) after every job completion and after
// Finish. Call cancel to unregister.
func (a *Aggregator) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	a.mu.Lock()
	a.watch[ch] = struct{}{}
	a.mu.Unlock()
	return ch, func() {
		a.mu.Lock()
		delete(a.watch, ch)
		a.mu.Unlock()
	}
}

func (a *Aggregator) notify() {
	a.mu.Lock()
	for ch := range a.watch {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	a.mu.Unlock()
}

func copyHists(hs []ClassHist) []ClassHist {
	out := make([]ClassHist, len(hs))
	for i, h := range hs {
		out[i] = h
		out[i].Bins = append([]int64(nil), h.Bins...)
	}
	return out
}
