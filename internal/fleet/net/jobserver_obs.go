package net

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// This file is the job server's observability surface: the SSE snapshot
// stream, the Prometheus exposition, the merged host table, and the
// embedded dashboard. The aggregation itself lives in internal/obs; the
// glue here is routing plus fleet.RunStats plumbing (every job's run
// records its own stats, so the fleet-wide view merges across jobs).

// sseFrameInterval is the SSE stream's frame clock: after a subscriber's
// first frame, a non-final snapshot goes out only when this ticker fires,
// however many cells finished since, so a subscriber costs one analytics
// reduction per interval rather than one per completion. The final frame
// does not wait for it.
const sseFrameInterval = 250 * time.Millisecond

// handleEvents streams ordered aggregate snapshots as server-sent
// events: one "snapshot" event per frame — the first at once, then one
// per sseFrameInterval tick, and the Final frame (whose aggregates are
// the run's post-hoc analytics, byte for byte) as soon as the run
// finishes. Subscribers connecting after completion receive exactly the
// final frame. A stalled client blocks only its own handler goroutine —
// the aggregator is pull-based, like the telemetry Bus.
func (s *JobServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	select {
	case <-j.busReady:
	case <-r.Context().Done():
		return
	}
	j.mu.Lock()
	agg := j.agg
	j.mu.Unlock()
	if agg == nil {
		writeError(w, http.StatusConflict, "job produced no telemetry: %s", j.snapshot().Error)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := agg.Watch()
	defer cancel()
	tick := time.NewTicker(sseFrameInterval)
	defer tick.Stop()
	for {
		snap := agg.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data); err != nil {
			return
		}
		fl.Flush()
		if snap.Final {
			return
		}
	wait:
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ch:
				// A completion alone waits for the tick; Finish does not.
				if agg.Progress().Final {
					break wait
				}
			case <-tick.C:
				break wait
			}
		}
	}
}

// handleList answers GET /jobs with every submitted job's status body,
// in submission order.
func (s *JobServer) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]statusBody, 0)
	for _, j := range s.jobsInOrder() {
		out = append(out, j.snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDashboard serves the embedded single-file live dashboard.
func (s *JobServer) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(obs.DashboardHTML)
}

// fleetBody is the GET /fleet response: the merged host table plus each
// job's scalar status.
type fleetBody struct {
	fleet.RunStats
	Jobs []statusBody `json:"jobs"`
}

func (s *JobServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobsInOrder()
	body := fleetBody{RunStats: s.mergedStats(jobs), Jobs: make([]statusBody, 0, len(jobs))}
	for _, j := range jobs {
		body.Jobs = append(body.Jobs, j.snapshot())
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *JobServer) jobsInOrder() []*serverJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*serverJob, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// jobStatsView is one job's contribution to the merged fleet view.
type jobStatsView struct {
	stats   fleet.RunStats
	running bool
}

func (s *JobServer) statsViews(jobs []*serverJob) []jobStatsView {
	var views []jobStatsView
	for _, j := range jobs {
		j.mu.Lock()
		tk, running := j.runStats, j.status == "running"
		j.mu.Unlock()
		if tk == nil {
			continue
		}
		views = append(views, jobStatsView{stats: tk.snapshot(), running: running})
	}
	return views
}

// mergedStats folds per-job run stats into one fleet-wide host
// table. Counters (dials, redials, items, shortfall, fallback)
// are cumulative sums over every job. Gauges (connected, breaker state,
// slot occupancy) describe "now", so they come from running jobs only —
// slots sum across concurrent runs, the breaker reports the worst state
// — falling back to the most recent job's view when nothing is running.
func (s *JobServer) mergedStats(jobs []*serverJob) fleet.RunStats {
	views := s.statsViews(jobs)
	anyRunning := false
	for _, v := range views {
		if v.running {
			anyRunning = true
			break
		}
	}
	var out fleet.RunStats
	idx := map[string]int{}
	for _, v := range views {
		st := v.stats
		out.FallbackUsed = out.FallbackUsed || st.FallbackUsed
		out.FallbackJobs += st.FallbackJobs
		live := v.running || !anyRunning
		for _, h := range st.Hosts {
			i, ok := idx[h.Addr]
			if !ok {
				i = len(out.Hosts)
				idx[h.Addr] = i
				out.Hosts = append(out.Hosts, fleet.HostStats{Addr: h.Addr, Capacity: h.Capacity})
			}
			m := &out.Hosts[i]
			m.ConnectAttempts += h.ConnectAttempts
			m.Redials += h.Redials
			m.ItemsCompleted += h.ItemsCompleted
			m.PredictorShips += h.PredictorShips
			m.SlotShortfall += h.SlotShortfall
			if h.Capacity > m.Capacity {
				m.Capacity = h.Capacity
			}
			if live {
				m.Connected = m.Connected || h.Connected
				m.SlotsConnected += h.SlotsConnected
				if breakerRank(h.Breaker) > breakerRank(m.Breaker) {
					m.Breaker = h.Breaker
				}
				if h.ConsecutiveFails > m.ConsecutiveFails {
					m.ConsecutiveFails = h.ConsecutiveFails
				}
				if h.LastErr != "" {
					m.LastErr = h.LastErr
				}
			}
		}
	}
	for i := range out.Hosts {
		if out.Hosts[i].Breaker == "" {
			out.Hosts[i].Breaker = BreakerClosed
		}
	}
	return out
}

func breakerRank(state string) int {
	switch state {
	case BreakerOpen:
		return 2
	case BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// handleMetrics renders the Prometheus exposition: per-job progress,
// per-user-class sample counters, the merged per-host recovery gauges,
// and the process's predictor self-training counters. Families are emitted contiguously as the format requires.
func (s *JobServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobsInOrder()
	type jobView struct {
		id    string
		prog  obs.Progress
		hists []obs.ClassHist
	}
	var views []jobView
	for _, j := range jobs {
		j.mu.Lock()
		agg := j.agg
		j.mu.Unlock()
		if agg == nil {
			continue
		}
		views = append(views, jobView{id: j.id, prog: agg.Progress(), hists: agg.HistSnapshot()})
	}

	mw := &obs.MetricWriter{}
	jl := func(id string) []obs.Label { return []obs.Label{{Name: "job", Value: id}} }

	mw.Family("usta_job_total", "Jobs in the sweep's expanded grid.", "gauge")
	for _, v := range views {
		mw.Sample("usta_job_total", jl(v.id), float64(v.prog.Total))
	}
	mw.Family("usta_job_done", "Jobs completed so far.", "gauge")
	for _, v := range views {
		mw.Sample("usta_job_done", jl(v.id), float64(v.prog.Done))
	}
	mw.Family("usta_job_failed", "Jobs completed with an error.", "gauge")
	for _, v := range views {
		mw.Sample("usta_job_failed", jl(v.id), float64(v.prog.Failed))
	}
	mw.Family("usta_job_running", "1 while the sweep is executing.", "gauge")
	for _, v := range views {
		running := 0.0
		if !v.prog.Final {
			running = 1
		}
		mw.Sample("usta_job_running", jl(v.id), running)
	}
	mw.Family("usta_job_samples_total", "Telemetry samples aggregated.", "counter")
	for _, v := range views {
		mw.Sample("usta_job_samples_total", jl(v.id), float64(v.prog.Samples))
	}
	// Durability families cover every job (terminal recovered jobs have no
	// aggregator, so they come from the status snapshots, not views).
	snaps := make([]statusBody, 0, len(jobs))
	for _, j := range jobs {
		snaps = append(snaps, j.snapshot())
	}
	mw.Family("usta_job_resumed_cells", "Cells restored from the WAL ledger instead of re-run.", "gauge")
	for _, sb := range snaps {
		mw.Sample("usta_job_resumed_cells", jl(sb.ID), float64(sb.Resumed))
	}
	mw.Family("usta_job_unjournaled", "1 when state journaling failed and the job lives in memory only.", "gauge")
	for _, sb := range snaps {
		mw.Sample("usta_job_unjournaled", jl(sb.ID), b2f(sb.Unjournaled))
	}
	mw.Family("usta_job_deadline_seconds", "Wall-clock deadline bounding the sweep (0: none).", "gauge")
	for _, sb := range snaps {
		mw.Sample("usta_job_deadline_seconds", jl(sb.ID), sb.DeadlineSec)
	}
	mw.Family("usta_class_samples_total", "Telemetry samples per user class.", "counter")
	for _, v := range views {
		for _, h := range v.hists {
			mw.Sample("usta_class_samples_total",
				[]obs.Label{{Name: "job", Value: v.id}, {Name: "class", Value: h.Class}}, float64(h.Samples))
		}
	}
	mw.Family("usta_class_over_limit_total", "Samples above the class's skin limit.", "counter")
	for _, v := range views {
		for _, h := range v.hists {
			mw.Sample("usta_class_over_limit_total",
				[]obs.Label{{Name: "job", Value: v.id}, {Name: "class", Value: h.Class}}, float64(h.OverLimit))
		}
	}

	st := s.mergedStats(jobs)
	hl := func(addr string) []obs.Label { return []obs.Label{{Name: "host", Value: addr}} }
	mw.Family("usta_host_connected", "1 when any running job holds a connection to the host.", "gauge")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_connected", hl(h.Addr), b2f(h.Connected))
	}
	mw.Family("usta_host_breaker", "One-hot circuit-breaker state per host.", "gauge")
	for _, h := range st.Hosts {
		for _, state := range []string{BreakerClosed, BreakerHalfOpen, BreakerOpen} {
			mw.Sample("usta_host_breaker",
				[]obs.Label{{Name: "host", Value: h.Addr}, {Name: "state", Value: state}}, b2f(h.Breaker == state))
		}
	}
	mw.Family("usta_host_capacity", "Advertised worker slot capacity.", "gauge")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_capacity", hl(h.Addr), float64(h.Capacity))
	}
	mw.Family("usta_host_slots_connected", "Connected slots summed over running jobs.", "gauge")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_slots_connected", hl(h.Addr), float64(h.SlotsConnected))
	}
	mw.Family("usta_host_connect_attempts_total", "Dial attempts, cumulative over jobs.", "counter")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_connect_attempts_total", hl(h.Addr), float64(h.ConnectAttempts))
	}
	mw.Family("usta_host_redials_total", "Successful reconnects after a connection loss.", "counter")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_redials_total", hl(h.Addr), float64(h.Redials))
	}
	mw.Family("usta_host_items_completed_total", "Work items completed per host.", "counter")
	for _, h := range st.Hosts {
		mw.Sample("usta_host_items_completed_total", hl(h.Addr), float64(h.ItemsCompleted))
	}
	mw.Family("usta_fallback_jobs_total", "Jobs absorbed by the local fallback pool.", "counter")
	mw.Sample("usta_fallback_jobs_total", nil, float64(st.FallbackJobs))

	trainings, hits := sweep.PredictorCounts()
	mw.Family("usta_predictor_trainings_total", "Predictors self-trained by this process.", "counter")
	mw.Sample("usta_predictor_trainings_total", nil, float64(trainings))
	mw.Family("usta_predictor_memo_hits_total", "Sweeps that reused a memoized self-trained predictor.", "counter")
	mw.Sample("usta_predictor_memo_hits_total", nil, float64(hits))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	mw.WriteTo(w)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
