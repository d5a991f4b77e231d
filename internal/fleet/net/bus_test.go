package net_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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

// headerWriter is a ResponseRecorder that reports when the handler wrote
// its header, i.e. when a telemetry stream is about to subscribe.
type headerWriter struct {
	*httptest.ResponseRecorder
	wrote chan struct{}
}

func (h *headerWriter) WriteHeader(code int) {
	h.ResponseRecorder.WriteHeader(code)
	close(h.wrote)
}

// subscribeTelemetry starts a telemetry stream over b and returns its body
// once the stream ends; it returns after the stream has written its header.
func subscribeTelemetry(b *fleetnet.Bus) <-chan []byte {
	w := &headerWriter{ResponseRecorder: httptest.NewRecorder(), wrote: make(chan struct{})}
	body := make(chan []byte, 1)
	go func() {
		fleetnet.StreamTelemetry(w, httptest.NewRequest("GET", "/jobs/j1/telemetry", nil), b)
		body <- w.Body.Bytes()
	}()
	<-w.wrote
	return body
}

// spillSample is sample i of job j: distinct in every field.
func spillSample(j, i int) device.Sample {
	return device.Sample{TimeSec: float64(i), SkinC: 30 + float64(j)/7 + float64(i)/1e4, ScreenC: 29.5 + float64(i%13)/8,
		DieC: 45.25 + float64(i%17), BatteryC: 31, FreqMHz: 384 + float64(i%9)*128, Util: float64(i%10) / 10, MaxLevel: 11 - j}
}

// runSizes streams b up to its first run of job last and returns the size
// of every run it got.
func runSizes(t *testing.T, b *fleetnet.Bus, last int) []int {
	t.Helper()
	var sizes []int
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := b.Stream(ctx, func(job int, run []device.Sample) error {
		sizes = append(sizes, len(run))
		if job == last {
			cancel()
		}
		return nil
	})
	if err != nil && err != context.Canceled {
		t.Fatalf("stream: %v", err)
	}
	return sizes
}

// TestBusSpillStreamsIdenticalJSONL: a bus pushed past BusSpillBytes moves
// its finished jobs to the spool, and subscribers attached before the
// first sample, mid-run and after Close all stream JSONL byte-identical to
// per-sample sink.AppendJSONL in submission order. Every job is 192,000
// bytes, so several straddle a BusWriteBuf flush (jobs 1, 2, 4 and 5 on
// disk, job 6 while the mid-run subscriber reads it); each finished job
// still comes back complete, as one run. After Close the bus holds nothing
// in memory and the spool holds every byte.
func TestBusSpillStreamsIdenticalJSONL(t *testing.T) {
	const jobs, perJob = 8, 3000
	if jobs*perJob*sink.SampleSize <= fleetnet.BusSpillBytes || perJob*sink.SampleSize%fleetnet.BusWriteBuf == 0 {
		t.Fatal("the test grid must outgrow the bus and straddle its write buffer")
	}
	dir := t.TempDir()
	b := fleetnet.NewSpoolBus(jobs, dir)
	var want []byte
	for j := 0; j < jobs; j++ {
		for i := 0; i < perJob; i++ {
			want = sink.AppendJSONL(want, sink.JobID(j), spillSample(j, i))
		}
	}

	early := subscribeTelemetry(b)
	var mid <-chan []byte
	for j := 0; j < jobs; j++ {
		// Even jobs arrive as the wire's packed blocks, odd ones sample by
		// sample, as from the in-process pool.
		var block []byte
		for i := 0; i < perJob; i++ {
			if j%2 == 1 {
				b.Accept(sink.JobID(j), spillSample(j, i))
				continue
			}
			if block = sink.PackSample(block, spillSample(j, i)); len(block) == 256*sink.SampleSize || i == perJob-1 {
				b.AcceptPacked(sink.JobID(j), block)
				block = nil
			}
		}
		b.Finish(j)
		if j == 6 {
			if held := fleetnet.BusHeldBytes(b); held >= fleetnet.BusSpillBytes {
				t.Fatalf("a spilling bus holds %d bytes mid-run, want < %d", held, fleetnet.BusSpillBytes)
			}
			// Job 6's bytes straddle the last flush: part in the spool,
			// part in the write buffer. Read up to it before anything
			// else is written.
			if sizes := runSizes(t, b, 6); fmt.Sprint(sizes) != fmt.Sprint([]int{perJob, perJob, perJob, perJob, perJob, perJob, perJob}) {
				t.Fatalf("run sizes through job 6 %v, want one run of %d per job", sizes, perJob)
			}
			mid = subscribeTelemetry(b)
		}
	}
	b.Close()
	late := subscribeTelemetry(b)
	for name, body := range map[string]<-chan []byte{"early": early, "mid-run": mid, "late": late} {
		if got := <-body; !bytes.Equal(got, want) {
			t.Errorf("%s subscriber: %d bytes differ from per-sample AppendJSONL (%d bytes)", name, len(got), len(want))
		}
	}

	if sizes := runSizes(t, b, jobs-1); fmt.Sprint(sizes) != fmt.Sprint([]int{perJob, perJob, perJob, perJob, perJob, perJob, perJob, perJob}) {
		t.Fatalf("run sizes after Close %v, want one run of %d per job", sizes, perJob)
	}
	if held := fleetnet.BusHeldBytes(b); held != 0 {
		t.Fatalf("closed spilled bus holds %d bytes in memory, want 0", held)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("spool dir holds %v (%v), want one file", files, err)
	}
	if fi, err := files[0].Info(); err != nil || fi.Size() != jobs*perJob*sink.SampleSize {
		t.Fatalf("spool file %v (%v), want %d bytes", fi, err, jobs*perJob*sink.SampleSize)
	}
}

// TestBusUnspilledKeepsBlocks: a bus that never held more than
// BusSpillBytes creates no spool and keeps its telemetry in memory after
// Close.
func TestBusUnspilledKeepsBlocks(t *testing.T) {
	dir := t.TempDir()
	b := fleetnet.NewSpoolBus(2, dir)
	for i := 0; i < 500; i++ {
		b.Accept(sink.JobID(i%2), spillSample(i%2, i))
	}
	b.Finish(0)
	b.Close()
	if held := fleetnet.BusHeldBytes(b); held != 500*sink.SampleSize {
		t.Fatalf("closed bus holds %d bytes, want %d", held, 500*sink.SampleSize)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("an unspilled bus made %d spool files", len(files))
	}
	if got := collect(t, b); len(got) != 500 || got[0] != "0:0" || got[499] != "1:499" {
		t.Fatalf("stream = %d samples, want 500 in job order", len(got))
	}
}
