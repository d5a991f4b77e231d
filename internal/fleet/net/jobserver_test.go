package net_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/scenario"
	"repro/internal/sink"
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

// tracedSpec is a small traced sweep (no trace_free) with a USTA scheme,
// so both controllers a scenario builds run on both sides of the
// trace-free pin.
const tracedSpec = `{
  "version": 1,
  "name": "traced",
  "workloads": ["skype", "game"],
  "population": ["a", "b"],
  "schemes": [{"name": "baseline"}, {"name": "usta", "controller": "usta", "limit_c": 37}],
  "duration": {"scale": 0.05},
  "seeds": {"policy": "indexed", "base": 11},
  "predictor": {"corpus_seed": 1999, "corpus_per_run_sec": 120}
}`

// TestJobServerRunsTraceFree: the job server reads no cell's trace, so a
// traced spec runs trace-free — no settled cell holds a Trace or Records
// — and its comfort table is byte-equal to a traced in-process
// RunScenario of the same spec.
func TestJobServerRunsTraceFree(t *testing.T) {
	worker := startServer(t, &fleetnet.Server{Capacity: 2})
	js := fleetnet.NewJobServer(fleetnet.New([]string{worker}))
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := submit(t, ts, tracedSpec)
	if final := waitStatus(t, ts, id); final["status"] != "done" {
		t.Fatalf("job finished %v", final)
	}
	stats := fleetnet.JobStats(js, id)
	if len(stats) == 0 {
		t.Fatal("job holds no cell stats")
	}
	for i, st := range stats {
		if st.Result == nil {
			t.Fatalf("cell %d never settled", i)
		}
		if st.Result.Trace != nil || st.Result.Records != nil {
			t.Fatalf("cell %d kept a trace on the server (trace %t, %d records)",
				i, st.Result.Trace != nil, len(st.Result.Records))
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Comfort json.RawMessage `json:"comfort"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	spec, err := repro.ParseScenario([]byte(tracedSpec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.RunScenario(context.Background(), spec, repro.ScenarioWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(ref.Results) != len(stats) || ref.Results[0].Result.Trace == nil {
		t.Fatalf("reference: %d cells, want %d, traced", len(ref.Results), len(stats))
	}
	want, err := json.Marshal(ref.ComfortByUser())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Comfort, want) {
		t.Fatalf("job server comfort diverged from traced RunScenario\n got %s\nwant %s", body.Comfort, want)
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

// spoolSpec is a trace-free sweep whose telemetry (13 jobs × 1,500
// samples, 64 bytes each) outgrows a bus's memory bound.
const spoolSpec = `{
  "version": 1,
  "workloads": ["antutu-cpu", "antutu-cpu-gpu-ram", "antutu-userexp",
                "antutu-full", "antutu-cpu-90min", "antutu-tester",
                "gfxbench", "vellamo", "skype", "youtube", "record",
                "charging", "game"],
  "schemes": [{"name": "baseline"}],
  "duration": {"sec": 1500},
  "seeds": {"policy": "indexed", "base": 7},
  "trace_free": true
}`

// referenceTelemetry runs spec on the in-process pool and returns its
// JSONL telemetry in submission order, as /jobs/{id}/telemetry serves it.
func referenceTelemetry(t *testing.T, specJSON string) []byte {
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
	var mu sync.Mutex
	per := make([][]device.Sample, len(grid.Jobs))
	cfg := fleet.Config{Workers: 2, Seed: spec.Seeds.Base, Sink: sink.Func(func(id sink.JobID, s device.Sample) {
		mu.Lock()
		per[id] = append(per[id], s)
		mu.Unlock()
	})}
	fleet.New(cfg).Run(context.Background(), grid.Jobs)
	var out []byte
	n := 0
	for j, run := range per {
		for _, s := range run {
			out = sink.AppendJSONL(out, sink.JobID(j), s)
		}
		n += len(run)
	}
	if n*sink.SampleSize <= fleetnet.BusSpillBytes {
		t.Fatalf("reference telemetry of %d samples does not outgrow the bus", n)
	}
	return out
}

// submitTelemetry submits spec to js, waits for it to finish and returns
// its telemetry body.
func submitTelemetry(t *testing.T, js *fleetnet.JobServer, spec string) []byte {
	t.Helper()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()
	id := submit(t, ts, spec)
	if final := waitStatus(t, ts, id); final["status"] != "done" {
		t.Fatalf("job finished %v", final)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJobServerTelemetrySpool: a submission whose telemetry outgrows the
// bus spills into one spool file under TMPDIR, streams byte-identical to
// the in-process run, and Close removes the spool directory.
func TestJobServerTelemetrySpool(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	want := referenceTelemetry(t, spoolSpec)
	js := fleetnet.NewJobServer(fleetnet.New([]string{startServer(t, &fleetnet.Server{Capacity: 2})}))
	js.Workers = 2
	var logs logLines
	js.Logf = logs.logf
	defer js.Close()
	if got := submitTelemetry(t, js, spoolSpec); !bytes.Equal(got, want) {
		t.Fatalf("telemetry: %d bytes differ from the in-process run's %d", len(got), len(want))
	}
	spools, _ := filepath.Glob(filepath.Join(tmp, "*", "*"))
	if len(spools) != 1 {
		t.Fatalf("spool files under TMPDIR: %v, want one", spools)
	}
	js.Close()
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("Close left %d entries under TMPDIR", len(left))
	}
	if n := logs.count("spool"); n != 0 {
		t.Fatalf("%d spool log lines on a working spool", n)
	}
}

// TestJobServerSpoolFailsSafe: with TMPDIR naming a regular file the spool
// cannot be made. The submission still completes, its telemetry streams
// every sample from memory, and the server logs the failure once.
func TestJobServerSpoolFailsSafe(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", notDir)
	want := referenceTelemetry(t, spoolSpec)
	js := fleetnet.NewJobServer(fleetnet.New([]string{startServer(t, &fleetnet.Server{Capacity: 2})}))
	js.Workers = 2
	var logs logLines
	js.Logf = logs.logf
	defer js.Close()
	if got := submitTelemetry(t, js, spoolSpec); !bytes.Equal(got, want) {
		t.Fatalf("telemetry: %d bytes differ from the in-process run's %d", len(got), len(want))
	}
	if n := logs.count("spool"); n != 1 {
		t.Fatalf("%d spool log lines, want 1:\n%s", n, strings.Join(logs.all(), "\n"))
	}
}

// logLines collects a server's log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// count reports how many lines contain substr.
func (l *logLines) count(substr string) int {
	n := 0
	for _, line := range l.all() {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// getTelemetry opens job id's telemetry stream.
func getTelemetry(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestJobServerSpoolOutlivesClose: Close removes the spool directory only
// once no telemetry stream is open. A stream open across Close, and one
// started after Close while the first is still open, both stream every
// byte; after both end the directory is gone, and a later request for the
// spooled submission is refused with 503 rather than an empty 200.
func TestJobServerSpoolOutlivesClose(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	want := referenceTelemetry(t, spoolSpec)
	js := fleetnet.NewJobServer(fleetnet.New([]string{startServer(t, &fleetnet.Server{Capacity: 2})}))
	js.Workers = 2
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()
	id := submit(t, ts, spoolSpec)
	if final := waitStatus(t, ts, id); final["status"] != "done" {
		t.Fatalf("job finished %v", final)
	}

	open := getTelemetry(t, ts, id)
	defer open.Body.Close()
	head := make([]byte, 1)
	if _, err := io.ReadFull(open.Body, head); err != nil {
		t.Fatal(err)
	}
	js.Close()
	late := getTelemetry(t, ts, id)
	lateBody, err := io.ReadAll(late.Body)
	late.Body.Close()
	if err != nil || late.StatusCode != http.StatusOK || !bytes.Equal(lateBody, want) {
		t.Fatalf("stream started after Close: status %d, %d of %d bytes (%v)", late.StatusCode, len(lateBody), len(want), err)
	}
	rest, err := io.ReadAll(open.Body)
	if got := append(head, rest...); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stream open across Close: %d of %d bytes (%v)", len(got), len(want), err)
	}

	// The handler ends its stream before the client reads the body's
	// end, but allow the server a moment to finish the response.
	deadline := time.Now().Add(5 * time.Second)
	for left, _ := os.ReadDir(tmp); len(left) != 0; left, _ = os.ReadDir(tmp) {
		if time.Now().After(deadline) {
			t.Fatalf("spool directory still there after every stream ended: %v", left)
		}
		time.Sleep(5 * time.Millisecond)
	}
	gone := getTelemetry(t, ts, id)
	gone.Body.Close()
	if gone.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("telemetry of a spooled job after its spool was removed: status %d, want 503", gone.StatusCode)
	}
}

// TestJobServerSpoolLossAbortsStream: a telemetry stream that cannot read
// the spool breaks the transfer instead of ending a 200 body cleanly, so
// the client sees the loss, and the server logs it.
func TestJobServerSpoolLossAbortsStream(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	js := fleetnet.NewJobServer(fleetnet.New([]string{startServer(t, &fleetnet.Server{Capacity: 2})}))
	js.Workers = 2
	var logs logLines
	js.Logf = logs.logf
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()
	id := submit(t, ts, spoolSpec)
	if final := waitStatus(t, ts, id); final["status"] != "done" {
		t.Fatalf("job finished %v", final)
	}
	spools, _ := filepath.Glob(filepath.Join(tmp, "*", "*"))
	if len(spools) != 1 {
		t.Fatalf("spool files under TMPDIR: %v, want one", spools)
	}
	fi, err := os.Stat(spools[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(spools[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/telemetry")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("a stream over a truncated spool ended cleanly")
	}
	if n := logs.count("telemetry stream aborted"); n != 1 {
		t.Fatalf("%d abort log lines, want 1:\n%s", n, strings.Join(logs.all(), "\n"))
	}
}
