package net_test

// Observability-surface tests: the SSE snapshot stream, the determinism
// pin that anchors it (the final streamed aggregates must be byte-equal
// to the post-hoc analytics over the same run), and the /metrics +
// /fleet views of live run stats under fault injection.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/net/chaos"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// obsSpec is a Table-1-shaped sweep with a real grid (2 workloads × 2
// participants × 2 ambients) so the streamed heat map and per-class
// histograms are non-trivial.
func obsSpec(traceFree bool) string {
	return fmt.Sprintf(`{
	  "version": 1,
	  "name": "obs-e2e",
	  "workloads": ["skype", "youtube"],
	  "population": ["a", "b"],
	  "ambients_c": [25, 35],
	  "schemes": [{"name": "baseline"}],
	  "duration": {"scale": 0.05},
	  "seeds": {"policy": "indexed", "base": 7},
	  "trace_free": %t
	}`, traceFree)
}

// sseSnap mirrors obs.Snapshot with the deterministic section kept raw,
// so equality checks compare the exact bytes that crossed the wire.
type sseSnap struct {
	Seq        int             `json:"seq"`
	Status     string          `json:"status"`
	Final      bool            `json:"final"`
	Done       int             `json:"done"`
	Failed     int             `json:"failed"`
	Total      int             `json:"total"`
	Samples    int64           `json:"samples"`
	Aggregates json.RawMessage `json:"aggregates"`
	SkinHist   []obs.ClassHist `json:"skin_hist"`
	Fleet      json.RawMessage `json:"fleet"`
}

// readSnapshots subscribes to a job's SSE stream and returns every
// snapshot frame until the server ends the stream on the final one.
func readSnapshots(t *testing.T, ts *httptest.Server, id string) []sseSnap {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []sseSnap
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "snapshot":
			var s sseSnap
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
				t.Fatalf("snapshot frame: %v", err)
			}
			out = append(out, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceAggregates reruns the spec on the in-process pool and reduces
// it through the same post-hoc pipeline the job server uses (Flatten +
// ViolationSink + AggregatesFromStats), returning the marshaled bytes.
// The repo's determinism contract makes this the ground truth for any
// runner and worker count.
func referenceAggregates(t *testing.T, specJSON string) []byte {
	t.Helper()
	spec, err := scenario.Parse([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	devCfg := device.DefaultConfig()
	grid, err := spec.Expand(scenario.Env{Device: &devCfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.Config{Workers: 2, Seed: spec.Seeds.Base}
	var vs *analytics.ViolationSink
	if spec.TraceFree {
		vs = analytics.NewViolationSink(grid.Limits())
		cfg.Sink = vs
	}
	results := fleet.New(cfg).Run(context.Background(), grid.Jobs)
	stats, err := analytics.Flatten(grid, results)
	if err != nil {
		t.Fatal(err)
	}
	if vs != nil {
		vs.Apply(stats)
	}
	data, err := json.Marshal(obs.AggregatesFromStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEventsFinalSnapshotMatchesAnalytics is the tentpole determinism
// pin: stream a job's aggregate snapshots over SSE through a real TCP
// worker daemon, and require the final frame's aggregates to be
// byte-equal to the post-hoc analytics of an independent local rerun —
// in both the traced and trace-free telemetry modes.
func TestEventsFinalSnapshotMatchesAnalytics(t *testing.T) {
	for _, traceFree := range []bool{false, true} {
		traceFree := traceFree
		t.Run(fmt.Sprintf("traceFree=%v", traceFree), func(t *testing.T) {
			worker := startServer(t, &fleetnet.Server{Capacity: 2})
			js := fleetnet.NewJobServer(fleetnet.New([]string{worker}))
			js.Workers = 2
			defer js.Close()
			ts := httptest.NewServer(js.Handler())
			defer ts.Close()

			specJSON := obsSpec(traceFree)
			id := submit(t, ts, specJSON)
			snaps := readSnapshots(t, ts, id)
			if len(snaps) == 0 {
				t.Fatal("no snapshots streamed")
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].Seq <= snaps[i-1].Seq {
					t.Fatalf("snapshot seq not increasing: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
				}
				if snaps[i].Done < snaps[i-1].Done {
					t.Fatalf("done count regressed: %d then %d", snaps[i-1].Done, snaps[i].Done)
				}
			}
			last := snaps[len(snaps)-1]
			if !last.Final || last.Status != "done" || last.Done != last.Total || last.Total != 8 {
				t.Fatalf("final frame = %+v", last)
			}
			if last.Samples <= 0 {
				t.Fatal("final frame aggregated no samples")
			}
			if len(last.SkinHist) != 2 {
				t.Fatalf("skin_hist classes = %d, want 2", len(last.SkinHist))
			}
			var total int64
			for _, h := range last.SkinHist {
				if h.Samples == 0 {
					t.Fatalf("class %s histogram empty", h.Class)
				}
				binned := h.Under + h.Over
				for _, n := range h.Bins {
					binned += n
				}
				if binned != h.Samples {
					t.Fatalf("class %s bins sum %d != samples %d", h.Class, binned, h.Samples)
				}
				total += h.Samples
			}
			if total != last.Samples {
				t.Fatalf("histogram total %d != samples %d", total, last.Samples)
			}

			// The pin: final streamed aggregates == post-hoc analytics.
			want := referenceAggregates(t, specJSON)
			if !bytes.Equal(last.Aggregates, want) {
				t.Fatalf("final aggregates diverge from post-hoc analytics:\n got: %s\nwant: %s",
					last.Aggregates, want)
			}
			// And they are non-trivial: both grid axes present.
			var agg struct {
				Comfort []obs.Comfort `json:"comfort"`
				HeatMap *obs.HeatMap  `json:"heat_map"`
			}
			if err := json.Unmarshal(last.Aggregates, &agg); err != nil {
				t.Fatal(err)
			}
			if len(agg.Comfort) != 2 {
				t.Fatalf("comfort rows = %d, want 2", len(agg.Comfort))
			}
			if agg.HeatMap == nil || len(agg.HeatMap.Rows) != 2 {
				t.Fatalf("heat map rows = %+v, want the 2 ambients", agg.HeatMap)
			}

			// A late subscriber gets exactly the final frame, with the
			// same aggregate bytes.
			late := readSnapshots(t, ts, id)
			if len(late) != 1 || !late[0].Final {
				t.Fatalf("late subscriber frames = %d (final=%v), want exactly the final frame",
					len(late), late[len(late)-1].Final)
			}
			if !bytes.Equal(late[0].Aggregates, want) {
				t.Fatal("late subscriber's final aggregates diverge")
			}

			// /metrics agrees with the final frame's sample counter.
			metrics := getBody(t, ts, "/metrics")
			wantLine := fmt.Sprintf("usta_job_samples_total{job=%q} %s", id,
				strconv.FormatFloat(float64(last.Samples), 'g', -1, 64))
			if !strings.Contains(metrics, wantLine) {
				t.Fatalf("metrics missing %q in:\n%s", wantLine, metrics)
			}
		})
	}
}

// pacedRunner runs a job server's sweep on the local pool once gate is
// closed, holding each completion for delay, so a test decides when the
// cells finish relative to the event stream's first frame and its ticks.
type pacedRunner struct {
	gate  chan struct{}
	delay time.Duration
}

func (r *pacedRunner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) ([]fleet.JobResult, fleet.RunStats) {
	select {
	case <-r.gate:
	case <-ctx.Done():
	}
	onResult := cfg.OnResult
	cfg.OnResult = func(res fleet.JobResult) {
		time.Sleep(r.delay)
		if onResult != nil {
			onResult(res)
		}
	}
	return fleet.LocalRunner{}.Run(ctx, cfg, jobs)
}

// TestEventsTickerCadence: a completion alone does not send a frame.
// After the first frame, non-final snapshots go out only on the
// SSEFrameInterval ticker and the final frame as soon as the run
// finishes, so a stream lasting wall W carries at most ⌊W / interval⌋ + 2
// frames however many cells finished: 312 completions spread over more
// than two ticks stream a handful of frames, and a run that finishes
// within one tick streams exactly its first frame and its final frame.
func TestEventsTickerCadence(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		cells int
		delay time.Duration
	}{
		{"hundreds of completions", `{
		  "version": 1,
		  "workloads": ["antutu-cpu", "antutu-cpu-gpu-ram", "antutu-userexp",
		                "antutu-full", "antutu-cpu-90min", "antutu-tester",
		                "gfxbench", "vellamo", "skype", "youtube", "record",
		                "charging", "game"],
		  "population": ["a", "b", "c", "d", "e", "f", "g", "h"],
		  "ambients_c": [25, 30, 35],
		  "schemes": [{"name": "baseline"}],
		  "duration": {"sec": 2},
		  "seeds": {"policy": "indexed", "base": 5},
		  "trace_free": true
		}`, 312, 2 * time.Millisecond},
		{"within one tick", e2eSpec, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &pacedRunner{gate: make(chan struct{}), delay: tc.delay}
			js := fleetnet.NewJobServer(r)
			js.Workers = 1
			defer js.Close()
			ts := httptest.NewServer(js.Handler())
			defer ts.Close()

			id := submit(t, ts, tc.spec)
			start := time.Now()
			resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
			var snaps []sseSnap
			for sc.Scan() {
				line, ok := strings.CutPrefix(sc.Text(), "data: ")
				if !ok {
					continue
				}
				var s sseSnap
				if err := json.Unmarshal([]byte(line), &s); err != nil {
					t.Fatalf("snapshot frame: %v", err)
				}
				if snaps = append(snaps, s); len(snaps) == 1 {
					close(r.gate) // the run starts after the first frame
				}
			}
			wall := time.Since(start)
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 || snaps[0].Final {
				t.Fatalf("%d frames (first final: %v); want a live first frame and a final one", len(snaps), len(snaps) > 0 && snaps[0].Final)
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].Seq <= snaps[i-1].Seq {
					t.Fatalf("snapshot seq not increasing: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
				}
				if snaps[i-1].Final {
					t.Fatalf("frame %d follows the final frame", i)
				}
			}
			last := snaps[len(snaps)-1]
			if !last.Final || last.Status != "done" || last.Done != tc.cells || last.Total != tc.cells {
				t.Fatalf("last frame = %+v, want the final frame of %d done cells", last, tc.cells)
			}
			bound := int(wall/fleetnet.SSEFrameInterval) + 2
			t.Logf("%d frames over %v (bound %d)", len(snaps), wall, bound)
			if len(snaps) > bound {
				t.Fatalf("%d frames over %v; the %v ticker allows at most %d", len(snaps), wall, fleetnet.SSEFrameInterval, bound)
			}
		})
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestJobServerDashboard: GET / serves the embedded dashboard as HTML.
func TestJobServerDashboard(t *testing.T) {
	js := fleetnet.NewJobServer(nil)
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("GET / = %d, Content-Type %q; want 200 text/html", resp.StatusCode, ct)
	}
	if !bytes.Equal(body, obs.DashboardHTML) {
		t.Fatalf("GET / served %d bytes; want the %d of obs.DashboardHTML", len(body), len(obs.DashboardHTML))
	}
}

// TestMetricsAndFleetUnderChaos is the live-stats acceptance criterion:
// during a chaos-injected run (connections dropped mid-stream, forcing
// redials), /fleet and /metrics expose the recovery counters of the
// job's own run.
func TestMetricsAndFleetUnderChaos(t *testing.T) {
	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	sched := &chaos.Schedule{Override: func(conn int) (chaos.Plan, bool) {
		if conn < 2 {
			return chaos.Plan{Kind: chaos.FaultDrop, DropAfterFrames: 3}, true
		}
		return chaos.Plan{Kind: chaos.FaultNone}, true
	}}
	p := chaosProxy(t, backend, sched)

	nr := fastRecovery([]string{p.Addr()})
	nr.ShardSize = 2
	nr.MaxRetries = 20
	nr.Logf = t.Logf
	js := fleetnet.NewJobServer(nr)
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, obsSpec(true))

	// Poll /fleet while the job runs: the merged host table must be
	// serving live clone stats, not placeholders.
	sawHost := false
	deadline := time.Now().Add(60 * time.Second)
	for {
		var body struct {
			Hosts []struct {
				Addr     string `json:"addr"`
				Capacity int    `json:"capacity"`
				Redials  int    `json:"redials"`
			} `json:"hosts"`
			Jobs []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal([]byte(getBody(t, ts, "/fleet")), &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Jobs) != 1 || body.Jobs[0].ID != id {
			t.Fatalf("/fleet jobs = %+v", body.Jobs)
		}
		if len(body.Hosts) == 1 && body.Hosts[0].Addr == p.Addr() {
			sawHost = true
		}
		if body.Jobs[0].Status != "running" {
			if body.Jobs[0].Status != "done" {
				t.Fatalf("job finished %s", body.Jobs[0].Status)
			}
			if !sawHost {
				t.Fatal("/fleet never surfaced the worker host")
			}
			if body.Hosts[0].Redials < 1 {
				t.Fatalf("merged stats show no redials after chaos drops: %+v", body.Hosts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /metrics carries the same counters in exposition format.
	metrics := getBody(t, ts, "/metrics")
	redials := promValue(t, metrics, "usta_host_redials_total", p.Addr())
	if redials < 1 {
		t.Fatalf("usta_host_redials_total = %g, want >= 1 in:\n%s", redials, metrics)
	}
	if promValue(t, metrics, "usta_host_items_completed_total", p.Addr()) < 1 {
		t.Fatal("usta_host_items_completed_total not advanced")
	}
	if !strings.Contains(metrics, fmt.Sprintf("usta_job_done{job=%q} 8", id)) {
		t.Fatalf("metrics missing completed job gauge:\n%s", metrics)
	}
}

// promValue extracts one labeled sample value from an exposition body.
func promValue(t *testing.T, metrics, name, host string) float64 {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`%s\{host=%q\} ([0-9.e+-]+)`, name, host))
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metrics missing %s{host=%q}:\n%s", name, host, metrics)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEventsStalledClientDoesNotBlockJob: an SSE subscriber that never
// reads its stream must not stall job execution or other subscribers —
// the aggregator is pull-based, so a stalled client blocks only its own
// handler goroutine.
func TestEventsStalledClientDoesNotBlockJob(t *testing.T) {
	worker := startServer(t, &fleetnet.Server{Capacity: 2})
	js := fleetnet.NewJobServer(fleetnet.New([]string{worker}))
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, obsSpec(true))

	// Stalled client: issues the request, never reads the response body.
	stalled, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	// A healthy subscriber still drains to the final frame, and the job
	// reaches a terminal status, with the stalled connection open
	// throughout.
	snaps := readSnapshots(t, ts, id)
	if len(snaps) == 0 || !snaps[len(snaps)-1].Final {
		t.Fatalf("healthy subscriber did not reach the final frame (%d frames)", len(snaps))
	}
	body := waitStatus(t, ts, id)
	if body["status"] != "done" {
		t.Fatalf("job status = %v", body["status"])
	}
}

// memoTestRuns numbers TestMetricsPredictorMemo's runs.
var memoTestRuns atomic.Int64

// TestMetricsPredictorMemo: repeated submissions of one usta spec train
// its predictor once — /metrics shows one self-training, then a memo hit
// per later submission.
func TestMetricsPredictorMemo(t *testing.T) {
	worker := startServer(t, &fleetnet.Server{Capacity: 2})
	js := fleetnet.NewJobServer(fleetnet.New([]string{worker}))
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	// The corpus seed is used by no other test, nor by an earlier run of
	// this one under -count, so the first submission trains.
	spec := fmt.Sprintf(`{
	  "version": 1,
	  "workloads": ["skype", "game"],
	  "population": ["c"],
	  "schemes": [{"name": "baseline"}, {"name": "usta", "controller": "usta"}],
	  "duration": {"sec": 60},
	  "predictor": {"corpus_seed": %d, "corpus_per_run_sec": 120},
	  "trace_free": true
	}`, 2000+memoTestRuns.Add(1))
	counters := func() (trainings, hits float64) {
		metrics := getBody(t, ts, "/metrics")
		for _, c := range []struct {
			name string
			v    *float64
		}{{"usta_predictor_trainings_total", &trainings}, {"usta_predictor_memo_hits_total", &hits}} {
			m := regexp.MustCompile(`(?m)^` + c.name + ` ([0-9.e+-]+)$`).FindStringSubmatch(metrics)
			if m == nil {
				t.Fatalf("metrics missing %s:\n%s", c.name, metrics)
			}
			*c.v, _ = strconv.ParseFloat(m[1], 64)
		}
		return trainings, hits
	}
	trained0, hits0 := counters()
	for i := 1; i <= 3; i++ {
		id := submit(t, ts, spec)
		if st := waitStatus(t, ts, id); st["status"] != "done" {
			t.Fatalf("submission %d finished %v", i, st)
		}
		trained, hits := counters()
		if trained-trained0 != 1 || hits-hits0 != float64(i-1) {
			t.Fatalf("after %d submissions: %g trainings and %g memo hits, want 1 and %d",
				i, trained-trained0, hits-hits0, i-1)
		}
	}
}
