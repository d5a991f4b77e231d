package net_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/sink"
)

// collect drains the full bus stream into "job:t" strings.
func collect(t *testing.T, b *fleetnet.Bus) []string {
	t.Helper()
	var got []string
	err := b.Stream(context.Background(), func(job int, run []device.Sample) error {
		for _, s := range run {
			got = append(got, fmt.Sprintf("%d:%g", job, s.TimeSec))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return got
}

// TestBusDoubleClose: Close is idempotent — a second Close neither panics
// nor disturbs subscribers that attached in between.
func TestBusDoubleClose(t *testing.T) {
	b := fleetnet.NewBus(2)
	b.Accept(0, device.Sample{TimeSec: 1})
	b.Accept(1, device.Sample{TimeSec: 2})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b); len(got) != 2 || got[0] != "0:1" || got[1] != "1:2" {
		t.Fatalf("stream after double close = %v", got)
	}
}

// TestBusSubscribeAfterClose: a subscriber attaching after the run ended
// still replays the complete ordered stream, and accepts arriving after
// Close are dropped rather than corrupting the finalized record.
func TestBusSubscribeAfterClose(t *testing.T) {
	b := fleetnet.NewBus(3)
	// Out-of-order arrival across jobs; in-order within each job.
	b.Accept(2, device.Sample{TimeSec: 5})
	b.Accept(0, device.Sample{TimeSec: 1})
	b.Accept(1, device.Sample{TimeSec: 3})
	b.Accept(1, device.Sample{TimeSec: 4})
	b.Accept(0, device.Sample{TimeSec: 2})
	b.Close()
	b.Accept(0, device.Sample{TimeSec: 99})  // late sample: dropped
	b.Accept(-1, device.Sample{TimeSec: 99}) // out of range: dropped
	b.Accept(3, device.Sample{TimeSec: 99})  // out of range: dropped
	b.Finish(7)                              // out of range: no-op

	want := []string{"0:1", "0:2", "1:3", "1:4", "2:5"}
	got := collect(t, b)
	if len(got) != len(want) {
		t.Fatalf("stream = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestBusStreamCancelNoLeak: subscribers blocked on a live bus unwind on
// context cancellation instead of leaking with the cond var forever.
func TestBusStreamCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	b := fleetnet.NewBus(1) // never closed, never finished: streams must block
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Stream(ctx, func(int, []device.Sample) error { return nil })
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them park in cond.Wait
	cancel()
	wg.Wait()
	for i, err := range errs {
		if err != context.Canceled {
			t.Fatalf("subscriber %d returned %v, want context.Canceled", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBusSlowSubscriberDoesNotBlock: the bus is pull-based, so a
// subscriber stalled inside its callback must not back-pressure the
// producer (Accept/Finish/Close stay non-blocking — job execution never
// waits on a telemetry reader) or starve other subscribers.
func TestBusSlowSubscriberDoesNotBlock(t *testing.T) {
	const jobs, perJob = 3, 50
	b := fleetnet.NewBus(jobs)

	stalled := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan int, 1)
	go func() {
		n, first := 0, true
		b.Stream(context.Background(), func(_ int, run []device.Sample) error {
			if first {
				first = false
				close(stalled)
				<-release // park mid-callback while the producer runs
			}
			n += len(run)
			return nil
		})
		slowDone <- n
	}()

	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for i := 0; i < perJob; i++ {
			for j := 0; j < jobs; j++ {
				b.Accept(sink.JobID(j), device.Sample{TimeSec: float64(i)})
			}
		}
		for j := 0; j < jobs; j++ {
			b.Finish(j)
		}
		b.Close()
	}()
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("slow subscriber never received a sample")
	}
	select {
	case <-prodDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer blocked by a stalled subscriber")
	}

	// A second subscriber drains the complete stream while the first is
	// still parked.
	if got := collect(t, b); len(got) != jobs*perJob {
		t.Fatalf("healthy subscriber saw %d samples, want %d", len(got), jobs*perJob)
	}

	close(release)
	select {
	case n := <-slowDone:
		if n != jobs*perJob {
			t.Fatalf("slow subscriber caught up to %d samples, want %d", n, jobs*perJob)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow subscriber never caught up after release")
	}
}

// TestBusAcceptIsSink compiles the Bus against the sink contract it claims
// to implement and exercises a live tail: samples accepted while a
// subscriber is mid-stream are delivered without re-subscribing.
func TestBusAcceptIsSink(t *testing.T) {
	var _ sink.Sink = fleetnet.NewBus(0)

	b := fleetnet.NewBus(2)
	got := make(chan string, 16)
	go b.Stream(context.Background(), func(job int, run []device.Sample) error {
		for _, s := range run {
			got <- fmt.Sprintf("%d:%g", job, s.TimeSec)
		}
		return nil
	})
	b.Accept(0, device.Sample{TimeSec: 1})
	if v := <-got; v != "0:1" {
		t.Fatalf("live tail delivered %q, want 0:1", v)
	}
	b.Finish(0)
	b.Accept(1, device.Sample{TimeSec: 2})
	if v := <-got; v != "1:2" {
		t.Fatalf("live tail delivered %q, want 1:2", v)
	}
	b.Close()
}

// TestBusLiveRunsFollowTheFrontier: a live subscriber receives job 0's
// samples while job 0 is still running and job 1 has samples waiting, and
// job 1's as soon as job 0 finishes — before job 1 itself finishes. Each
// run is one job's.
func TestBusLiveRunsFollowTheFrontier(t *testing.T) {
	b := fleetnet.NewBus(2)
	type run struct {
		job int
		ts  []float64
	}
	got := make(chan run, 16)
	go b.Stream(context.Background(), func(job int, r []device.Sample) error {
		var ts []float64
		for _, s := range r {
			ts = append(ts, s.TimeSec)
		}
		got <- run{job, ts}
		return nil
	})
	next := func() run {
		t.Helper()
		select {
		case r := <-got:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("no run delivered")
			return run{}
		}
	}
	b.Accept(1, device.Sample{TimeSec: 10}) // job 1 runs ahead
	b.Accept(0, device.Sample{TimeSec: 1})
	if r := next(); r.job != 0 || fmt.Sprint(r.ts) != "[1]" {
		t.Fatalf("first run = %+v, want job 0's [1] while job 0 is live", r)
	}
	b.Accept(0, device.Sample{TimeSec: 2})
	if r := next(); r.job != 0 || fmt.Sprint(r.ts) != "[2]" {
		t.Fatalf("second run = %+v, want job 0's [2]", r)
	}
	b.Finish(0)
	if r := next(); r.job != 1 || fmt.Sprint(r.ts) != "[10]" {
		t.Fatalf("third run = %+v, want job 1's [10] before job 1 finishes", r)
	}
	b.Close()
}

// TestBusRunsBatchABacklog: a subscriber that attaches after the run gets
// each job's samples as a single run, however many there are.
func TestBusRunsBatchABacklog(t *testing.T) {
	b := fleetnet.NewBus(3)
	for i := 0; i < 100; i++ {
		for j := 0; j < 3; j++ {
			b.Accept(sink.JobID(j), device.Sample{TimeSec: float64(i)})
		}
	}
	b.Accept(1, device.Sample{TimeSec: 100})
	b.Close()
	var sizes []int
	b.Stream(context.Background(), func(_ int, run []device.Sample) error {
		sizes = append(sizes, len(run))
		return nil
	})
	if fmt.Sprint(sizes) != "[100 101 100]" {
		t.Fatalf("run sizes %v, want one run per job: [100 101 100]", sizes)
	}
}

// flushCounter is a ResponseWriter that counts writes and flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (f *flushCounter) Write(b []byte) (int, error) {
	f.writes++
	return f.ResponseRecorder.Write(b)
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestTelemetryFlushesPerRun: a telemetry request over a finished
// multi-job bus writes in chunks and flushes at most once per run the bus
// hands out — not once per sample — and its body is byte-identical to
// per-sample sink.AppendJSONL in submission order.
func TestTelemetryFlushesPerRun(t *testing.T) {
	const jobs, perJob = 4, 700
	b := fleetnet.NewBus(jobs)
	var want []byte
	samples := make([][]device.Sample, jobs)
	for j := range samples {
		for i := 0; i < perJob; i++ {
			samples[j] = append(samples[j], device.Sample{TimeSec: float64(i) / 3, SkinC: 30 + float64(j)/7, ScreenC: 29.5,
				DieC: 45.25, BatteryC: 31, FreqMHz: 1512, Util: float64(i%10) / 10, MaxLevel: 11 - j})
		}
	}
	for i := 0; i < perJob; i++ { // interleaved arrival across jobs
		for j := jobs - 1; j >= 0; j-- {
			b.Accept(sink.JobID(j), samples[j][i])
		}
	}
	for j := range samples {
		for _, s := range samples[j] {
			want = sink.AppendJSONL(want, sink.JobID(j), s)
		}
	}
	b.Close()
	runs := 0
	b.Stream(context.Background(), func(int, []device.Sample) error { runs++; return nil })

	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	fleetnet.StreamTelemetry(w, httptest.NewRequest("GET", "/jobs/j1/telemetry", nil), b)
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("body differs from per-sample AppendJSONL: %d bytes, want %d", len(got), len(want))
	}
	if w.flushes == 0 || w.flushes > runs {
		t.Fatalf("%d flushes for %d runs (%d samples); want 1..%d", w.flushes, runs, jobs*perJob, runs)
	}
	if maxWrites := runs + len(want)/(32<<10); w.writes > maxWrites {
		t.Fatalf("%d writes for a %d-byte body in %d runs; want at most %d", w.writes, len(want), runs, maxWrites)
	}
}

// liveWriter is a ResponseWriter whose flushed bytes a test can watch.
type liveWriter struct {
	mu      sync.Mutex
	pending []byte
	flushed chan string
}

func (w *liveWriter) Header() http.Header { return http.Header{} }
func (w *liveWriter) WriteHeader(int)     {}
func (w *liveWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.pending = append(w.pending, b...)
	w.mu.Unlock()
	return len(b), nil
}
func (w *liveWriter) Flush() {
	w.mu.Lock()
	out := string(w.pending)
	w.pending = nil
	w.mu.Unlock()
	w.flushed <- out
}

// TestTelemetryLiveTail: on a live bus the telemetry stream flushes each
// run as it arrives, so a reader sees a sample before its job finishes.
func TestTelemetryLiveTail(t *testing.T) {
	b := fleetnet.NewBus(2)
	ctx, cancel := context.WithCancel(context.Background())
	w := &liveWriter{flushed: make(chan string, 16)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fleetnet.StreamTelemetry(w, httptest.NewRequest("GET", "/jobs/j1/telemetry", nil).WithContext(ctx), b)
	}()
	expect := func(job int, s device.Sample) {
		t.Helper()
		select {
		case got := <-w.flushed:
			if want := string(sink.AppendJSONL(nil, sink.JobID(job), s)); got != want {
				t.Fatalf("flushed %q, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d's sample at t=%g never flushed", job, s.TimeSec)
		}
	}
	s0 := device.Sample{TimeSec: 1, SkinC: 31}
	b.Accept(0, s0)
	expect(0, s0)
	b.Finish(0)
	s1 := device.Sample{TimeSec: 2, SkinC: 32}
	b.Accept(1, s1)
	expect(1, s1)
	cancel()
	<-done
}
