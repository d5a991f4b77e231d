package net

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/sweep"
)

// JobServer is the persistent submit/poll side of the fleet service
// (`ustafleetd`): scenario specs come in over HTTP, run asynchronously on
// a fleet runner (multi-host through Runner, or the in-process pool), and
// are observable while running — status and progress by polling, ordered
// JSONL telemetry by streaming, and rolling aggregates over SSE.
// Endpoints:
//
//	POST /jobs                  submit a scenario spec (JSON body) → {"id": ...}
//	GET  /jobs                  list submitted jobs, submission order
//	GET  /jobs/{id}             status, progress, and (when done) analytics
//	POST /jobs/{id}/cancel      abort a running job
//	GET  /jobs/{id}/telemetry   JSONL sample stream merged into submission order
//	GET  /jobs/{id}/events      SSE stream of ordered aggregate snapshots
//	GET  /metrics               Prometheus text exposition (jobs, classes, hosts)
//	GET  /fleet                 merged per-host recovery/saturation table
//	GET  /                      embedded live dashboard (internal/obs)
//
// Construct with NewJobServer, mount Handler, Close on shutdown.
type JobServer struct {
	// Runner executes submitted sweeps (nil: the in-process pool). Every
	// job runs on this one runner, unmodified: the sweep's predictor
	// travels in each run's fleet.Config, and a *Runner (multi-host
	// coordinator) publishes each job's recovery stats to that job alone.
	Runner fleet.Runner
	// Workers bounds each job's worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Device is the base configuration grids expand against (nil: default).
	Device *device.Config
	// Predictor, when set, backs usta schemes without per-job training.
	Predictor *core.Predictor
	// Admission gates POST /jobs: a submission that cannot take a token
	// immediately is answered 429 (nil: always admit).
	Admission *TokenBucket
	// Store, when set, journals every submission and its completed-cell
	// ledger to a write-ahead log (`ustafleetd -state-dir`): finished jobs'
	// status and results survive a restart, and interrupted sweeps resume
	// by dispatching only unfinished cells — byte-identical to an
	// uninterrupted run, because every cell's seed was resolved at submit
	// time. Call Recover before serving. Journaling failures degrade the
	// affected job to unjournaled (logged once, visible in its status)
	// instead of failing submissions.
	Store *durable.Store
	// JobDeadline, when positive, bounds each sweep's wall-clock execution:
	// a job still running that long after submission (or recovery) fails
	// with a deadline error instead of pinning the server forever.
	JobDeadline time.Duration
	// Logf, when set, receives one line per job-lifecycle event.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	jobs   map[string]*serverJob
	order  []string // job IDs in submission order
	seq    int
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

// NewJobServer creates a job server executing on the given runner (nil:
// the in-process pool).
func NewJobServer(r fleet.Runner) *JobServer {
	ctx, cancel := context.WithCancel(context.Background())
	return &JobServer{Runner: r, jobs: make(map[string]*serverJob), ctx: ctx, cancel: cancel}
}

func (s *JobServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Close cancels every running job and waits for them to unwind. The
// handler keeps answering status queries afterwards; new submissions are
// rejected.
func (s *JobServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// serverJob is one submitted sweep's lifecycle record.
type serverJob struct {
	id string

	mu          sync.Mutex
	status      string // "running", "done", "failed", "cancelled"
	done        int
	total       int
	errMsg      string
	comfort     []analytics.UserComfort
	userCancel  bool // POST /jobs/{id}/cancel (vs a server drain)
	unjournaled bool // journaling failed; job served from memory only
	resumed     int  // cells restored from the ledger instead of re-run
	deadlineSec float64

	bus      *Bus
	agg      *obs.Aggregator               // live aggregation state (nil until the grid exists)
	runStats *atomic.Pointer[statsTracker] // this job's run stats (nil off the networked runner)
	busReady chan struct{}                 // closed once bus (and total) exist
	cancel   context.CancelFunc
	finished chan struct{}
	jlog     *durable.JobLog // nil: no store, or journaling degraded at Begin
}

// statusBody is the GET /jobs/{id} response shape.
type statusBody struct {
	ID      string                  `json:"id"`
	Status  string                  `json:"status"`
	Done    int                     `json:"done"`
	Total   int                     `json:"total"`
	Error   string                  `json:"error,omitempty"`
	Comfort []analytics.UserComfort `json:"comfort,omitempty"`
	// Unjournaled marks a job the state store could not journal (disk
	// full, permissions): it runs and serves from memory but will not
	// survive a restart.
	Unjournaled bool `json:"unjournaled,omitempty"`
	// Resumed counts cells restored from the ledger after a restart.
	Resumed int `json:"resumed,omitempty"`
	// DeadlineSec is the sweep's wall-clock deadline (0: none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

func (j *serverJob) snapshot() statusBody {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusBody{ID: j.id, Status: j.status, Done: j.done, Total: j.total,
		Error: j.errMsg, Comfort: j.comfort, Unjournaled: j.unjournaled,
		Resumed: j.resumed, DeadlineSec: j.deadlineSec}
}

// Handler returns the HTTP API.
func (s *JobServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *JobServer) lookup(r *http.Request) (*serverJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *JobServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "scenario spec: %v", err)
		return
	}
	if s.Admission != nil && !s.Admission.Allow(1) {
		writeError(w, http.StatusTooManyRequests, "admission control: try again later")
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Drains are brief: tell clients when to retry instead of letting
		// the closing listener cut them off mid-flight.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server draining; retry against a live replica")
		return
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	ctx, cancel := context.WithCancel(s.ctx)
	j := &serverJob{id: id, status: "running", cancel: cancel,
		deadlineSec: s.JobDeadline.Seconds(),
		busReady:    make(chan struct{}), finished: make(chan struct{})}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()
	if s.Store != nil {
		// Journal the submission (synced) before acknowledging: an accepted
		// job must survive an immediate crash. A store failure degrades the
		// job to unjournaled rather than rejecting the submission.
		jlog, err := s.Store.Begin(durable.Submission{
			ID: id, Spec: body, DeadlineSec: s.JobDeadline.Seconds()})
		if err != nil {
			s.journalDegraded(j, err)
		} else {
			j.jlog = jlog
		}
	}
	s.logf("net: job %s: submitted", id)
	go func() {
		defer s.wg.Done()
		defer cancel()
		if s.JobDeadline > 0 {
			var dcancel context.CancelFunc
			ctx, dcancel = context.WithTimeout(ctx, s.JobDeadline)
			defer dcancel()
		}
		s.execute(ctx, j, spec, nil)
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// journalDegraded marks a job unjournaled after a state-store failure,
// logging the cause once; the job keeps running and serving from memory.
func (s *JobServer) journalDegraded(j *serverJob, err error) {
	j.mu.Lock()
	first := !j.unjournaled
	j.unjournaled = true
	j.mu.Unlock()
	if first {
		s.logf("net: job %s: state journaling disabled: %v (job continues unjournaled)", j.id, err)
	}
}

// journal applies one journaling operation, degrading the job on failure.
// The job log latches its first error, so a dead disk costs one failed
// syscall per call here, not a growing pile of them.
func (s *JobServer) journal(j *serverJob, op func(l *durable.JobLog) error) {
	j.mu.Lock()
	l := j.jlog
	j.mu.Unlock()
	if l == nil {
		return
	}
	if err := op(l); err != nil {
		s.journalDegraded(j, err)
	}
}

func (s *JobServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *JobServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	// User cancels journal a terminal record (the job must stay cancelled
	// across restarts); a server drain's cancellation must not, so that
	// drained jobs resume. The flag is how execute tells them apart.
	j.userCancel = true
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "status": "cancelling"})
}

func (s *JobServer) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// The bus exists once the grid is expanded; a submission that failed
	// before that closes busReady with a nil bus.
	select {
	case <-j.busReady:
	case <-r.Context().Done():
		return
	}
	j.mu.Lock()
	bus := j.bus
	j.mu.Unlock()
	if bus == nil {
		writeError(w, http.StatusConflict, "job produced no telemetry: %s", j.snapshot().Error)
		return
	}
	streamTelemetry(w, r, bus)
}

// telemetryChunk is how many bytes of JSONL the telemetry stream buffers
// before it writes them.
const telemetryChunk = 32 << 10

// streamTelemetry answers a telemetry request from bus: each run the bus
// hands out is encoded line by line into one reused buffer, written
// whenever the buffer holds telemetryChunk bytes, and flushed once at the
// end of the run — so a live tail sees every run as it arrives, and a
// reader replaying a finished job pays a write per chunk rather than a
// write and a flush per sample.
func streamTelemetry(w http.ResponseWriter, r *http.Request, bus *Bus) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 0, telemetryChunk+512)
	bus.Stream(r.Context(), func(job int, run []device.Sample) error {
		for i := range run {
			buf = sink.AppendJSONL(buf, sink.JobID(job), run[i])
			if len(buf) >= telemetryChunk || i == len(run)-1 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	})
}

// finishJob journals the terminal record when the outcome should survive
// a restart — everything except a drain's cancellation (and a cancelled
// run's ledger already skipped the cells the cancel interrupted), so a
// drained or killed coordinator resumes the sweep on recovery.
func (s *JobServer) finishJob(j *serverJob, st durable.Status) {
	j.mu.Lock()
	userCancel := j.userCancel
	l := j.jlog
	j.jlog = nil
	j.mu.Unlock()
	if l == nil {
		return
	}
	if st.Status != "cancelled" || userCancel {
		if err := l.Finish(st); err != nil {
			s.journalDegraded(j, err)
		}
	}
	if err := l.Close(); err != nil {
		s.journalDegraded(j, err)
	}
}

// execute runs one submitted sweep to completion through internal/sweep —
// the pipeline RunScenario runs too — with the bus and the aggregator as
// its telemetry sink, the job log as its ledger, and the job's status fed
// from its progress and results. rec, when non-nil, is the job's replayed
// WAL state: the run verifies the re-expanded grid against the journaled
// cell table, restores ledgered cells without re-running them, and
// dispatches only the remainder — byte-identical to an uninterrupted run,
// because every cell's seed was pinned at submit time.
func (s *JobServer) execute(ctx context.Context, j *serverJob, spec *scenario.Spec, rec *durable.RecoveredJob) {
	fail := func(err error) {
		j.mu.Lock()
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			j.status = "cancelled"
		} else {
			j.status = "failed"
		}
		j.errMsg = err.Error()
		agg, status := j.agg, j.status
		j.mu.Unlock()
		s.finishJob(j, durable.Status{Status: status, Error: err.Error()})
		if agg != nil {
			// Terminal frame for event-stream subscribers.
			agg.Finish(status)
		}
		// Unblock telemetry waiters whether or not a bus ever existed.
		select {
		case <-j.busReady:
		default:
			close(j.busReady)
		}
		close(j.finished)
		s.logf("net: job %s: %s: %v", j.id, j.snapshot().Status, err)
	}

	sw, err := sweep.Expand(ctx, sweep.Config{Spec: spec, Device: s.Device, Predictor: s.Predictor,
		Workers: s.Workers, Runner: s.Runner})
	if err != nil {
		fail(err)
		return
	}
	// Resolve the resume plan: verify a recovered journal against the
	// re-expanded grid, or journal the fresh cell table.
	plan, err := durable.Resume(sw.Grid, rec, func(cells []durable.CellRef) error {
		s.journal(j, func(l *durable.JobLog) error { return l.Cells(cells) })
		return nil
	})
	if err != nil {
		fail(err)
		return
	}

	bus := NewBus(len(sw.Grid.Jobs))
	agg := obs.NewAggregator(sw.Grid)
	j.mu.Lock()
	j.bus = bus
	j.agg = agg
	j.done = len(plan.Done)
	j.total = len(sw.Grid.Jobs)
	j.resumed = len(plan.Done)
	if _, ok := s.Runner.(*Runner); ok {
		// The server's runner is shared by every job; the run publishes its
		// recovery stats into this job's own slot too, so /fleet, /metrics
		// and the job's event-stream snapshots follow this run.
		slot := new(atomic.Pointer[statsTracker])
		ctx = context.WithValue(ctx, runStatsKey{}, slot)
		j.runStats = slot
		agg.FleetFn = func() any { return snapshotOf(slot) }
	}
	j.mu.Unlock()
	close(j.busReady)

	// Restore ledgered cells before the live subset streams: the bus
	// closes their (empty) telemetry slots and the aggregator folds their
	// journaled violation counters through the same arithmetic as a live
	// completion. Ascending order keeps the replayed state deterministic.
	restoredIdx := make([]int, 0, len(plan.Done))
	for idx := range plan.Done {
		restoredIdx = append(restoredIdx, idx)
	}
	sort.Ints(restoredIdx)
	for _, idx := range restoredIdx {
		c := plan.Done[idx]
		bus.Finish(idx)
		agg.SeedJob(durable.RestoredResult(c), c.Violation)
	}

	res, err := sw.Run(ctx, plan, sweep.Hooks{
		Sink: sink.NewTee(bus, agg),
		Ledger: func(c durable.CellResult) {
			s.journal(j, func(l *durable.JobLog) error { return l.CellDone(c) })
		},
		OnResult: func(r fleet.JobResult) {
			bus.Finish(r.Index)
			agg.JobDone(r)
		},
		Progress: func(done, _ int) {
			j.mu.Lock()
			j.done = done
			j.mu.Unlock()
		},
	})
	bus.Close()
	if err != nil {
		fail(err)
		return
	}
	comfort := analytics.ComfortByUser(res.Stats)

	j.mu.Lock()
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			j.status = "failed"
			j.errMsg = fmt.Sprintf("job deadline (%gs) exceeded", j.deadlineSec)
		} else {
			j.status = "cancelled"
			j.errMsg = err.Error()
		}
	} else if err := fleet.FirstError(res.Results); err != nil {
		j.status = "failed"
		j.errMsg = err.Error()
	} else {
		j.status = "done"
	}
	j.comfort = comfort
	status, errMsg := j.status, j.errMsg
	j.mu.Unlock()
	s.finishJob(j, durable.Status{Status: status, Error: errMsg, Comfort: comfort})
	// Terminal frame: subscribers drain and disconnect on Final. The
	// aggregates it carries are pinned byte-equal to the post-hoc stats
	// computed above — see TestEventsFinalSnapshotMatchesAnalytics.
	agg.Finish(status)
	close(j.finished)
	s.logf("net: job %s: %s (%d jobs, %d resumed)", j.id, j.snapshot().Status, len(res.Results), len(plan.Done))
}
