package net_test

import (
	"bufio"
	"context"
	"encoding/json"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
)

// e2eSpec is a small baseline-only sweep (no predictor training) so the
// round trip stays fast.
const e2eSpec = `{
  "version": 1,
  "name": "e2e",
  "workloads": ["skype", "youtube"],
  "schemes": [{"name": "baseline"}],
  "duration": {"scale": 0.05},
  "seeds": {"policy": "indexed", "base": 7},
  "trace_free": true
}`

// longSpec is a sweep of 13 workloads × 100 simulated hours. A test that
// must act mid-run wraps the server's runner in an inFlightRunner rather
// than trusting the sweep to outlast a sleep.
const longSpec = `{
  "version": 1,
  "workloads": ["antutu-cpu", "antutu-cpu-gpu-ram", "antutu-userexp",
                "antutu-full", "antutu-cpu-90min", "antutu-tester",
                "gfxbench", "vellamo", "skype", "youtube", "record",
                "charging", "game"],
  "schemes": [{"name": "baseline"}],
  "duration": {"sec": 360000},
  "seeds": {"policy": "indexed", "base": 7},
  "trace_free": true
}`

// inFlightRunner wraps a job server's runner so a test can act on a run
// that is provably in flight: the run's first completed job closes started
// and holds the run (and, on a one-wide pool, every later job) until the
// run's context is cancelled. If nothing cancels it within
// inFlightRelease, the run goes on to finish normally — a server that
// stopped cancelling then reports "done" and fails the test instead of
// hanging it.
type inFlightRunner struct {
	inner   fleet.Runner // nil: fleet.LocalRunner
	started chan struct{}
	once    sync.Once
}

const inFlightRelease = 10 * time.Second

func newInFlightRunner(inner fleet.Runner) *inFlightRunner {
	return &inFlightRunner{inner: inner, started: make(chan struct{})}
}

func (r *inFlightRunner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) ([]fleet.JobResult, fleet.RunStats) {
	onResult := cfg.OnResult
	cfg.OnResult = func(res fleet.JobResult) {
		r.once.Do(func() {
			close(r.started)
			select {
			case <-ctx.Done():
			case <-time.After(inFlightRelease):
			}
		})
		if onResult != nil {
			onResult(res)
		}
	}
	inner := r.inner
	if inner == nil {
		inner = fleet.LocalRunner{}
	}
	return inner.Run(ctx, cfg, jobs)
}

// awaitInFlight blocks until r's run is held mid-flight.
func (r *inFlightRunner) awaitInFlight(t *testing.T) {
	t.Helper()
	select {
	case <-r.started:
	case <-time.After(30 * time.Second):
		t.Fatal("the run never reported its first job")
	}
}

// submit posts a spec and returns the job ID.
func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var body struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID == "" {
		t.Fatal("submit returned no job id")
	}
	return body.ID
}

// poll fetches a job's status body.
func poll(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// waitStatus polls until the job reaches a terminal status.
func waitStatus(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		body := poll(t, ts, id)
		switch body["status"] {
		case "done", "failed", "cancelled":
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %v", id, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobServerRoundTrip is the ustafleetd e2e: submit a scenario over
// HTTP, poll to completion, stream the merged telemetry, and check the
// stream is JSONL ordered by submission index. The job executes through a
// real TCP worker daemon, so the whole service stack is on the wire.
func TestJobServerRoundTrip(t *testing.T) {
	worker := startServer(t, &fleetnet.Server{Capacity: 2})
	js := fleetnet.NewJobServer(fleetnet.New([]string{worker}))
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, e2eSpec)
	final := waitStatus(t, ts, id)
	if final["status"] != "done" {
		t.Fatalf("job finished %v", final)
	}
	if final["done"] != float64(2) || final["total"] != float64(2) {
		t.Fatalf("progress = %v/%v, want 2/2", final["done"], final["total"])
	}
	if _, ok := final["comfort"]; !ok {
		t.Fatalf("finished job carries no analytics: %v", final)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("telemetry content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, lastJob := 0, 0
	for sc.Scan() {
		var row struct {
			Job  int     `json:"job"`
			T    float64 `json:"t"`
			Skin float64 `json:"skin_c"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d is not JSON: %v (%q)", lines, err, sc.Text())
		}
		if row.Job < lastJob {
			t.Fatalf("line %d: job %d after job %d — stream not in submission order", lines, row.Job, lastJob)
		}
		lastJob = row.Job
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("telemetry stream was empty")
	}
	if lastJob != 1 {
		t.Fatalf("stream ended on job %d, want both jobs present", lastJob)
	}

	// Unknown jobs 404.
	if r404, err := http.Get(ts.URL + "/jobs/zzz"); err != nil {
		t.Fatal(err)
	} else {
		r404.Body.Close()
		if r404.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d", r404.StatusCode)
		}
	}
}

// TestJobServerCancel: a long-running job is cancelled over HTTP and
// reaches the cancelled status; the telemetry stream terminates.
func TestJobServerCancel(t *testing.T) {
	r := newInFlightRunner(nil) // local execution
	js := fleetnet.NewJobServer(r)
	js.Workers = 1
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, longSpec)
	r.awaitInFlight(t)
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitStatus(t, ts, id)
	if final["status"] != "cancelled" {
		t.Fatalf("status after cancel = %v", final["status"])
	}
}

// TestJobServerAdmission: submissions beyond the bucket's burst get 429.
func TestJobServerAdmission(t *testing.T) {
	js := fleetnet.NewJobServer(nil)
	js.Workers = 1
	bucket, err := fleetnet.NewTokenBucket(0.001, 1) // one admit, then dry for hours
	if err != nil {
		t.Fatal(err)
	}
	js.Admission = bucket
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, e2eSpec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission status = %d, want 429", resp.StatusCode)
	}
	if got := waitStatus(t, ts, id); got["status"] != "done" {
		t.Fatalf("admitted job finished %v", got)
	}
}

// TestJobServerBadSpec: malformed submissions are rejected with 400 and
// leave no job behind.
func TestJobServerBadSpec(t *testing.T) {
	js := fleetnet.NewJobServer(nil)
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	for _, body := range []string{"{", `{"version": 99}`, ""} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestJobServerShutdownMidRun: closing the server mid-run cancels the job
// and leaks no goroutines — the daemon-killed-mid-run contract.
func TestJobServerShutdownMidRun(t *testing.T) {
	before := runtime.NumGoroutine()

	worker := &fleetnet.Server{Capacity: 1}
	addr := startWorkerForLeakTest(t, worker)
	r := newInFlightRunner(fleetnet.New([]string{addr}))
	js := fleetnet.NewJobServer(r)
	js.Workers = 1
	ts := httptest.NewServer(js.Handler())

	id := submit(t, ts, longSpec)
	r.awaitInFlight(t)
	js.Close() // kills the run mid-flight
	if got := poll(t, ts, id); got["status"] != "cancelled" && got["status"] != "failed" {
		t.Fatalf("status after shutdown = %v", got["status"])
	}
	ts.Close()
	worker.Shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after shutdown: %d before, %d now\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestJobServerDrainLifecycle: once Close begins draining, new
// submissions get 503 with a Retry-After hint, a second Close is
// harmless, and finished jobs stay queryable for stragglers.
func TestJobServerDrainLifecycle(t *testing.T) {
	js := fleetnet.NewJobServer(nil)
	js.Workers = 1
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, e2eSpec)
	if got := waitStatus(t, ts, id); got["status"] != "done" {
		t.Fatalf("pre-drain job finished %v", got)
	}
	js.Close()
	js.Close() // idempotent

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 carries no Retry-After header")
	}

	// The drained server still answers status queries for finished jobs.
	if got := poll(t, ts, id); got["status"] != "done" {
		t.Fatalf("post-drain status = %v, want done", got["status"])
	}
}

// startWorkerForLeakTest is startServer without t.Cleanup (the test
// shuts the server down itself to measure goroutines afterwards).
func startWorkerForLeakTest(t *testing.T, s *fleetnet.Server) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(context.Background(), ln)
	return ln.Addr().String()
}
