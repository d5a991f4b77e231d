package net_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	stdnet "net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
	"repro/internal/users"
	"repro/internal/workload"
)

// specJobs builds n spec-carrying benchmark jobs (no predictor needed).
// Seeds are left unpinned so the tests exercise coordinator-side seed
// resolution against the local runner's.
func specJobs(n int, traceFree bool) []fleet.Job {
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		spec := &fleet.JobSpec{
			Name:     fmt.Sprintf("job-%d", i),
			Workload: fleet.WorkloadRef{Name: "skype", Seed: uint64(i)},
			DurSec:   30,
		}
		jobs[i] = fleet.Job{
			Name:      spec.Name,
			Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
			DurSec:    spec.DurSec,
			TraceFree: traceFree,
			Spec:      spec,
		}
	}
	return jobs
}

// tally is the order-insensitive telemetry fingerprint of the runner
// tests: per-job sample counts and skin-value sums (per-job delivery
// is FIFO on every path, so float sums are bit-comparable).
type tally struct {
	mu     sync.Mutex
	counts map[int]int
	sums   map[int]float64
}

func newTally() *tally { return &tally{counts: map[int]int{}, sums: map[int]float64{}} }

func (t *tally) sink() sink.Sink {
	return sink.Func(func(id sink.JobID, s device.Sample) {
		t.mu.Lock()
		t.counts[int(id)]++
		t.sums[int(id)] += s.SkinC
		t.mu.Unlock()
	})
}

// startServer runs an in-process worker daemon on a loopback port and
// returns its address. The daemon is shut down with the test.
func startServer(t *testing.T, s *fleetnet.Server) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(context.Background(), ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("server exited: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestNetRunnerMatchesLocal is the distributed determinism contract: the
// same batch through two TCP worker daemons must be byte-identical to the
// in-process pool: results, seeds, telemetry. The jobs ask for traces:
// the local pool keeps them, while net results carry every aggregate and
// neither a Trace nor Records.
func TestNetRunnerMatchesLocal(t *testing.T) {
	const n = 8
	cfg := fleet.Config{Workers: 2, Seed: 42}

	run := func(r fleet.Runner) ([]fleet.JobResult, *tally) {
		tl := newTally()
		c := cfg
		c.Sink = tl.sink()
		got, _ := r.Run(context.Background(), c, specJobs(n, false))
		return got, tl
	}

	ref, refTally := run(fleet.LocalRunner{})
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	addr1 := startServer(t, &fleetnet.Server{Capacity: 2})
	addr2 := startServer(t, &fleetnet.Server{Capacity: 2})
	nr := fleetnet.New([]string{addr1, addr2})
	nr.ShardSize = 2
	got, gotTally := run(nr)
	if err := fleet.FirstError(got); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.Index != a.Index || b.Name != a.Name || b.SeedUsed != a.SeedUsed {
			t.Fatalf("job %d: metadata diverged: %+v vs %+v", i, b, a)
		}
		if a.Result.Trace == nil {
			t.Fatalf("job %d: the local pool dropped the trace the job asked for", i)
		}
		if b.Result.Trace != nil || b.Result.Records != nil {
			t.Fatalf("job %d: net result holds a trace (%v) or %d records", i, b.Result.Trace != nil, len(b.Result.Records))
		}
		want := *a.Result
		want.Trace, want.Records = nil, nil
		if !reflect.DeepEqual(*b.Result, want) {
			t.Fatalf("job %d: aggregates diverged:\n got %+v\nwant %+v", i, *b.Result, want)
		}
	}
	for i := 0; i < n; i++ {
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("job %d: telemetry diverged: %d/%v samples vs local %d/%v",
				i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
}

// killingProxy fronts a real worker daemon and murders the connection
// after forwarding a fixed number of result frames — the observable
// signature of a worker killed mid-shard: some jobs reported, the stream
// cut, no done frame.
type killingProxy struct {
	ln           stdnet.Listener
	backend      string
	resultsUntil int
	once         sync.Once // only the first connection is murdered
	wg           sync.WaitGroup
}

func startKillingProxy(t *testing.T, backend string, resultsUntil int) *killingProxy {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, backend: backend, resultsUntil: resultsUntil}
	p.wg.Add(1)
	go p.serve(t)
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *killingProxy) addr() string { return p.ln.Addr().String() }

func (p *killingProxy) serve(t *testing.T) {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		kill := false
		p.once.Do(func() { kill = true })
		p.wg.Add(1)
		go func(client stdnet.Conn, kill bool) {
			defer p.wg.Done()
			defer client.Close()
			server, err := stdnet.Dial("tcp", p.backend)
			if err != nil {
				return
			}
			defer server.Close()
			go func() {
				// Requests flow through untouched; a vanished client ends
				// the whole relay (closing server unblocks the other copy).
				io.Copy(server, client)
				server.Close()
			}()
			if !kill {
				io.Copy(client, server)
				return
			}
			// Forward frame-by-frame until enough results have passed, then
			// cut both sides mid-stream.
			results := 0
			for {
				f, err := wire.ReadFrame(server)
				if err != nil {
					return
				}
				if err := wire.WriteFrame(client, f); err != nil {
					return
				}
				if f.Type == wire.TypeResult {
					results++
					if results >= p.resultsUntil {
						return // defers close both conns: the "kill"
					}
				}
			}
		}(client, kill)
	}
}

// startSlowProxy fronts a backend with a fixed pre-handshake delay: the
// coordinator's hello read stalls that long before the relay starts. It
// keeps a host out of the early dispatch race so a test can steer which
// host claims the first work item.
func startSlowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(client stdnet.Conn) {
				defer wg.Done()
				defer client.Close()
				time.Sleep(delay)
				server, err := stdnet.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go func() {
					io.Copy(server, client)
					server.Close()
				}()
				io.Copy(client, server)
			}(client)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestNetRunnerWorkerLossRetry: a worker killed mid-shard keeps the jobs
// it reported, and only the unreported remainder is retried on the
// surviving host — with results and telemetry byte-identical to local,
// including the partially-streamed telemetry of retried jobs appearing
// exactly once.
func TestNetRunnerWorkerLossRetry(t *testing.T) {
	const n = 8
	cfg := fleet.Config{Workers: 2, Seed: 42}

	refTally := newTally()
	refCfg := cfg
	refCfg.Sink = refTally.sink()
	ref, _ := fleet.LocalRunner{}.Run(context.Background(), refCfg, specJobs(n, true))
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}

	// Host A is a real daemon behind a proxy that cuts the first connection
	// after one result frame; host B is healthy but held out of the early
	// dispatch race by a slow-start proxy, so A is guaranteed to claim the
	// first work item before dying. One shard of 4 jobs dies with 1 job
	// reported; its 3 unreported jobs must resurface on B.
	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	proxy := startKillingProxy(t, backend, 1)
	healthyBackend := startServer(t, &fleetnet.Server{Capacity: 1})
	healthy := startSlowProxy(t, healthyBackend, 600*time.Millisecond)

	nr := fleetnet.New([]string{proxy.addr(), healthy})
	nr.ShardSize = 4
	nr.HeartbeatTimeout = 5 * time.Second
	var logMu sync.Mutex
	var logs []string
	nr.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	gotTally := newTally()
	gotCfg := cfg
	gotCfg.Sink = gotTally.sink()
	got, _ := nr.Run(context.Background(), gotCfg, specJobs(n, true))
	if err := fleet.FirstError(got); err != nil {
		t.Fatalf("run with worker loss should fully recover: %v", err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.SeedUsed != a.SeedUsed || b.Result.EnergyJ != a.Result.EnergyJ ||
			b.Result.MaxSkinC != a.Result.MaxSkinC || b.Result.WorkDone != a.Result.WorkDone {
			t.Fatalf("job %d diverged after retry", i)
		}
	}
	for i := 0; i < n; i++ {
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("job %d telemetry diverged after retry: %d/%v vs local %d/%v",
				i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "connection lost") || !strings.Contains(joined, "requeueing") {
		t.Fatalf("expected connection-loss and requeue log lines, got:\n%s", joined)
	}
}

// TestNetRunnerHeartbeatDeadline: a worker that accepts a shard and then
// goes silent — no samples, no results, no heartbeats — is declared dead
// at the deadline and its jobs complete on the healthy host.
func TestNetRunnerHeartbeatDeadline(t *testing.T) {
	// The silent worker: speaks a correct hello, swallows the request, says
	// nothing ever again.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Teardown stops the acceptor before closing what it accepted, so a
	// redial landing as the run ends cannot race the cleanup.
	var silentMu sync.Mutex
	var silentConns []stdnet.Conn
	var acceptor sync.WaitGroup
	defer func() {
		ln.Close()
		acceptor.Wait()
		silentMu.Lock()
		defer silentMu.Unlock()
		for _, c := range silentConns {
			c.Close()
		}
	}()
	acceptor.Add(1)
	go func() {
		defer acceptor.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			silentMu.Lock()
			silentConns = append(silentConns, conn)
			silentMu.Unlock()
			wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeHello,
				Hello: &wire.HelloFrame{Proto: wire.Version, Capacity: 1}})
			// Read and ignore everything; never answer.
			go io.Copy(io.Discard, conn)
		}
	}()

	// The healthy host starts slow so the silent one is guaranteed to claim
	// a work item and wedge it.
	healthyBackend := startServer(t, &fleetnet.Server{Capacity: 2})
	healthy := startSlowProxy(t, healthyBackend, 600*time.Millisecond)
	nr := fleetnet.New([]string{ln.Addr().String(), healthy})
	nr.ShardSize = 2
	nr.HeartbeatTimeout = 300 * time.Millisecond
	// The silent host recovers instead of dying; give the wedged items
	// retry headroom so they survive its repeated heartbeat deaths until
	// the healthy host connects.
	nr.MaxRetries = 6
	var logMu sync.Mutex
	var joined strings.Builder
	nr.Logf = func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&joined, format+"\n", args...)
		logMu.Unlock()
	}
	results, _ := nr.Run(context.Background(), fleet.Config{Workers: 2, Seed: 7}, specJobs(6, true))
	if err := fleet.FirstError(results); err != nil {
		t.Fatalf("jobs should have recovered on the healthy host: %v", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(joined.String(), "no heartbeat for") {
		t.Fatalf("expected a heartbeat-deadline death, got:\n%s", joined.String())
	}
}

// TestServerMalformedFrames: protocol garbage over a real TCP connection —
// a bogus length prefix, a truncated frame, a non-shard frame — earns an
// error frame (where a reply is possible) and a closed connection, and the
// daemon keeps serving honest clients afterwards.
func TestServerMalformedFrames(t *testing.T) {
	addr := startServer(t, &fleetnet.Server{Capacity: 1})

	dial := func() stdnet.Conn {
		t.Helper()
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(conn)
		if err != nil || f.Type != wire.TypeHello {
			t.Fatalf("hello: %v (%+v)", err, f)
		}
		return conn
	}

	// Garbage JSON inside a well-formed length prefix.
	conn := dial()
	payload := []byte("{\"v\":1,\"type\":")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.TypeError {
		t.Fatalf("garbage frame: want an error frame, got %+v err=%v", f, err)
	}
	if _, err := wire.ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("connection should be closed after a protocol violation, got %v", err)
	}
	conn.Close()

	// An absurd length prefix must be rejected without allocating it.
	conn = dial()
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	conn.Write(hdr[:])
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeError {
		t.Fatalf("oversized frame: want an error frame, got %+v err=%v", f, err)
	}
	conn.Close()

	// A truncated frame (length promised, bytes withheld, connection cut)
	// must not wedge the daemon.
	conn = dial()
	binary.BigEndian.PutUint32(hdr[:], 4096)
	conn.Write(hdr[:])
	conn.Write([]byte("{\"v\":1"))
	conn.Close()

	// A structurally valid frame of the wrong type mid-handshake.
	conn = dial()
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeDone}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeError {
		t.Fatalf("wrong-type frame: want an error frame, got %+v err=%v", f, err)
	}
	conn.Close()

	// The daemon survived all of it: an honest run still works.
	nr := fleetnet.New([]string{addr})
	results, _ := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, specJobs(2, true))
	if err := fleet.FirstError(results); err != nil {
		t.Fatalf("daemon no longer serves honest clients: %v", err)
	}
}

// TestNetRunnerCancellation: cancelling the coordinator's context tears
// down every connection promptly and marks unfinished jobs with the
// context error, matching local-runner semantics.
func TestNetRunnerCancellation(t *testing.T) {
	longJobs := func(n int) []fleet.Job {
		jobs := make([]fleet.Job, n)
		for i := range jobs {
			spec := &fleet.JobSpec{
				Workload: fleet.WorkloadRef{Name: "skype", Seed: 1},
				DurSec:   1800,
			}
			jobs[i] = fleet.Job{
				Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
				DurSec:    spec.DurSec,
				TraceFree: true,
				Spec:      spec,
			}
		}
		return jobs
	}

	addr := startServer(t, &fleetnet.Server{Capacity: 2})

	// Pre-cancelled context: deterministic, nothing dispatched.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre, _ := fleetnet.New([]string{addr}).Run(ctx, fleet.Config{Workers: 1, Seed: 1}, longJobs(4))
	for i, r := range pre {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("pre-cancelled: job %d err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-run cancellation: every job either completed cleanly or carries
	// the context error, and the run returns promptly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	results, _ := fleetnet.New([]string{addr}).Run(ctx2, fleet.Config{Workers: 1, Seed: 1}, longJobs(200))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v after cancellation; connections were not torn down", elapsed)
	}
	cancelled := 0
	for i, r := range results {
		switch {
		case r.Err == nil && r.Result != nil:
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("job %d: unexpected outcome err=%v result=%v", i, r.Err, r.Result != nil)
		}
	}
	if cancelled == 0 {
		t.Fatal("200 long jobs all finished before a 50ms cancel; expected at least one cancellation")
	}
}

// TestNetRunnerAllHostsDown: unreachable inventory fails every job with a
// descriptive error instead of hanging.
func TestNetRunnerAllHostsDown(t *testing.T) {
	// A listener that is closed immediately: connection refused, fast.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	nr := fleetnet.New([]string{addr})
	nr.DialTimeout = time.Second
	// Supervisors keep redialing a down host; bound how long the run waits
	// for anything to connect.
	nr.AllDeadDeadline = 500 * time.Millisecond
	results, _ := nr.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(3, true))
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d should carry the dial failure", i)
		}
	}
}

// TestNetRunnerRefusesOldProtocolWorker: a daemon from a build speaking
// an older protocol — version 1 (one JSON frame per sample), version 2
// (the predictor in every shard request), version 3 (the predictor once
// per connection, then same_predictor), version 4 (JSON sample and
// result frames), version 5 (an engine code in every shard request) or
// version 6 (every job's device config inline) — is refused at its hello
// frame: the coordinator never
// ships it a shard, and the run fails with the version mismatch instead
// of mis-decoding frames mid-shard.
func TestNetRunnerRefusesOldProtocolWorker(t *testing.T) {
	for _, v := range []int{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var received atomic.Int64
			var wg sync.WaitGroup
			defer wg.Wait()
			defer ln.Close()
			hello := []byte(fmt.Sprintf(`{"v":%d,"type":"hello","hello":{"proto":%d,"capacity":1}}`, v, v))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					var hdr [4]byte
					binary.BigEndian.PutUint32(hdr[:], uint32(len(hello)))
					conn.Write(append(hdr[:], hello...))
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer conn.Close()
						n, _ := io.Copy(io.Discard, conn)
						received.Add(n)
					}()
				}
			}()

			nr := fleetnet.New([]string{ln.Addr().String()})
			nr.BackoffBase = 10 * time.Millisecond
			nr.AllDeadDeadline = 300 * time.Millisecond
			results, _ := nr.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(2, true))
			for i, r := range results {
				if r.Err == nil || !strings.Contains(r.Err.Error(), "protocol version") {
					t.Fatalf("job %d: err = %v, want the hello version mismatch", i, r.Err)
				}
			}
			ln.Close()
			wg.Wait()
			if n := received.Load(); n != 0 {
				t.Fatalf("the old worker was sent %d bytes; want it refused before any request", n)
			}
		})
	}
}

// TestServerGracefulShutdown: Shutdown with a shard in flight lets it
// finish and flush — the client still receives every result and the done
// frame — then the connection closes.
func TestServerGracefulShutdown(t *testing.T) {
	s := &fleetnet.Server{Capacity: 1}
	addr := startServer(t, s)

	conn, err := stdnet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeHello {
		t.Fatalf("hello: %v", err)
	}
	jobs := specJobs(2, true)
	var specs []fleet.JobSpec
	for i := range jobs {
		spec := *jobs[i].Spec
		spec.Index = i
		spec.Seed = fleet.EffectiveSeed(7, i, &jobs[i])
		specs = append(specs, spec)
	}
	req := &wire.ShardRequest{Workers: 1}
	req.SetJobs(specs)
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req}); err != nil {
		t.Fatal(err)
	}
	// Shutdown races the in-flight shard; the drain contract says we still
	// get both results and the done frame.
	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown()
		close(shutdownDone)
	}()
	results, done := 0, false
	for !done {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("stream broke during graceful drain after %d results: %v", results, err)
		}
		switch f.Type {
		case wire.TypeResult:
			results++
		case wire.TypeDone:
			done = true
		case wire.TypeHeartbeat:
		default:
			t.Fatalf("unexpected %s frame during drain", f.Type)
		}
	}
	if results != 2 {
		t.Fatalf("drain delivered %d results, want 2", results)
	}
	<-shutdownDone
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("connection should close after the drained shard")
	}
}

// TestTokenBucket covers the admission gate: burst spends, Allow never
// blocks, refill credits, and a rate or burst that could never admit is
// refused at construction.
func TestTokenBucket(t *testing.T) {
	b, err := fleetnet.NewTokenBucket(1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow(10) {
		t.Fatal("full burst should be admitted immediately")
	}
	if b.Allow(10) {
		t.Fatal("bucket should be empty")
	}
	if b.Allow(11) {
		t.Fatal("a request beyond the burst can never be admitted")
	}
	// Refill at 1000/s: 10 tokens take ~10ms.
	deadline := time.Now().Add(5 * time.Second)
	for !b.Allow(10) {
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(time.Millisecond)
	}

	for _, bad := range []struct {
		rate  float64
		burst int
	}{
		{5, 0}, {5, -1}, {0, 1}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1},
	} {
		if b, err := fleetnet.NewTokenBucket(bad.rate, bad.burst); err == nil || b != nil {
			t.Errorf("NewTokenBucket(%v, %d) = %v, %v; want an error", bad.rate, bad.burst, b, err)
		}
	}
}

// TestNoGoroutineLeaks: a full life cycle — runs, worker loss, shutdown —
// returns the process to its baseline goroutine count.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s1 := &fleetnet.Server{Capacity: 2}
	s2 := &fleetnet.Server{Capacity: 2}
	ln1, _ := stdnet.Listen("tcp", "127.0.0.1:0")
	ln2, _ := stdnet.Listen("tcp", "127.0.0.1:0")
	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() { s1.Serve(context.Background(), ln1); close(done1) }()
	go func() { s2.Serve(context.Background(), ln2); close(done2) }()

	nr := fleetnet.New([]string{ln1.Addr().String(), ln2.Addr().String()})
	nr.ShardSize = 2
	got, _ := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 5}, specJobs(4, true))
	if err := fleet.FirstError(got); err != nil {
		t.Fatal(err)
	}
	s1.Shutdown()
	s2.Shutdown()
	<-done1
	<-done2

	// Goroutines unwind asynchronously after conns close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ustaJobs trains a small predictor and builds n usta jobs against it: the
// in-process jobs carry their controllers, and their specs name the usta
// controller for workers rebuilding them from the returned encoding.
func ustaJobs(t *testing.T, n int) ([]fleet.Job, *fleet.EncodedPredictor) {
	t.Helper()
	bs := workload.Benchmarks(42)
	loads := make([]workload.Workload, len(bs))
	for i, b := range bs {
		loads[i] = b
	}
	corpus, err := core.CollectCorpusContext(context.Background(), device.DefaultConfig(), loads, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Train(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.EncodePredictor(pred)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		spec := &fleet.JobSpec{
			Name:       fmt.Sprintf("usta-%d", i),
			Workload:   fleet.WorkloadRef{Name: "game", Seed: uint64(i)},
			DurSec:     120,
			Controller: "usta",
			LimitC:     36,
		}
		jobs[i] = fleet.Job{
			Name:       spec.Name,
			Workload:   workload.ByName(spec.Workload.Name, spec.Workload.Seed),
			DurSec:     spec.DurSec,
			TraceFree:  true,
			Controller: func(users.User) device.Controller { return core.NewUSTA(pred, spec.LimitC) },
			Spec:       spec,
		}
	}
	return jobs, enc
}

// recordingListener keeps every byte each accepted connection reads: the
// coordinator's requests, as the worker sees them.
type recordingListener struct {
	stdnet.Listener
	mu    sync.Mutex
	conns []*recordingConn
}

type recordingConn struct {
	stdnet.Conn
	mu  sync.Mutex
	buf []byte
}

func (l *recordingListener) Accept() (stdnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recordingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, rc)
	l.mu.Unlock()
	return rc, nil
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.buf = append(c.buf, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// received returns the bytes read by each connection accepted since the
// previous call that used mark, and advances mark.
func (l *recordingListener) received(mark *int) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]byte
	for _, c := range l.conns[*mark:] {
		c.mu.Lock()
		out = append(out, bytes.Clone(c.buf))
		c.mu.Unlock()
	}
	*mark = len(l.conns)
	return out
}

// startRecordingServer serves s on a loopback recordingListener until the
// test ends.
func startRecordingServer(t *testing.T, s *fleetnet.Server) (string, *recordingListener) {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recordingListener{Listener: ln}
	done := make(chan error, 1)
	go func() { done <- s.Serve(context.Background(), rl) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("server exited: %v", err)
		}
	})
	return ln.Addr().String(), rl
}

// TestNetRunnerShipsPredictorOncePerConnection: a worker's first run
// carries the predictor document once per connection, and every request
// names it by ID; a later run against the same workers ships no predictor
// bytes at all; a fresh Server (a restarted worker) is sent the document
// again. Every run's results are byte-identical to the in-process pool's.
func TestNetRunnerShipsPredictorOncePerConnection(t *testing.T) {
	const n = 6
	jobs, enc := ustaJobs(t, n)
	cfg := fleet.Config{Workers: 1, Seed: 3}
	ref, _ := fleet.LocalRunner{}.Run(context.Background(), cfg, jobs)
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = enc
	idField := []byte(`"predictor_id":"` + enc.ID() + `"`)

	type worker struct {
		addr string
		rl   *recordingListener
		mark int
	}
	start := func() *worker {
		addr, rl := startRecordingServer(t, &fleetnet.Server{Capacity: 1})
		return &worker{addr: addr, rl: rl}
	}
	// run sends the batch through the workers, one job per request, and
	// checks that each connection it opened named the predictor in every
	// request and carried the document wantDocs times, and that the stats
	// counted one ship per document sent.
	run := func(label string, wantDocs int, ws ...*worker) {
		t.Helper()
		addrs := make([]string, len(ws))
		for i, w := range ws {
			addrs[i] = w.addr
		}
		nr := fleetnet.New(addrs)
		nr.ShardSize = 1
		got, st := nr.Run(context.Background(), cfg, jobs)
		if err := fleet.FirstError(got); err != nil {
			t.Fatal(err)
		}
		if gotJSON, err := json.Marshal(got); err != nil || !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("%s: results are not byte-identical to the local runner's (%v)", label, err)
		}
		hosts := st.Hosts
		total := 0
		for i, w := range ws {
			used := 0
			for k, c := range w.rl.received(&w.mark) {
				shards := bytes.Count(c, []byte(`"type":"shard"`))
				if shards == 0 {
					continue // another worker took the whole batch first
				}
				used++
				total += shards
				if ids := bytes.Count(c, idField); ids != shards {
					t.Fatalf("%s: worker %d connection %d named the predictor in %d of %d requests", label, i, k, ids, shards)
				}
				if docs := bytes.Count(c, enc.Doc()); docs != wantDocs {
					t.Fatalf("%s: worker %d connection %d carried the document %d times, want %d", label, i, k, docs, wantDocs)
				}
			}
			if want := wantDocs * used; hosts[i].PredictorShips != want {
				t.Fatalf("%s: worker %d: stats count %d predictor ships, want %d", label, i, hosts[i].PredictorShips, want)
			}
		}
		if total < n {
			t.Fatalf("%s: the workers read %d requests for %d jobs", label, total, n)
		}
	}

	a, b := start(), start()
	run("cold worker a", 1, a)
	run("cold worker b", 1, b)
	run("warm workers", 0, a, b)
	run("restarted worker", 1, start())
}

// TestServerSamePredictorNeedsOne: a request that names its predictor by
// ID alone needs a connection that pinned it. One naming a predictor the
// connection has not pinned, or carrying a document that does not hash
// to its ID, is refused with an error frame before anything runs, and the
// connection stays usable. Once a document crosses, requests name it by
// ID alone, and a new connection's hello advertises it.
func TestServerSamePredictorNeedsOne(t *testing.T) {
	jobs, enc := ustaJobs(t, 1)
	addr := startServer(t, &fleetnet.Server{Capacity: 1})
	dial := func() (stdnet.Conn, *wire.HelloFrame) {
		t.Helper()
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		f, err := wire.ReadFrame(conn)
		if err != nil || f.Type != wire.TypeHello {
			t.Fatalf("hello: %v (%+v)", err, f)
		}
		return conn, f.Hello
	}
	conn, hello := dial()
	if len(hello.Predictors) != 0 {
		t.Fatalf("a fresh server advertised %v", hello.Predictors)
	}
	spec := *jobs[0].Spec
	spec.Seed = 9
	// request sends one shard request and returns the frame ending it and
	// how many jobs it ran, after checking every result it streamed.
	request := func(req *wire.ShardRequest) (*wire.Frame, int) {
		t.Helper()
		req.SetJobs([]fleet.JobSpec{spec})
		if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req}); err != nil {
			t.Fatal(err)
		}
		ran := 0
		for {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			switch f.Type {
			case wire.TypeResult:
				if f.Result.Err != "" {
					t.Fatalf("job failed: %s", f.Result.Err)
				}
				ran++
			case wire.TypeDone, wire.TypeError:
				return f, ran
			}
		}
	}
	if f, ran := request(&wire.ShardRequest{PredictorID: enc.ID()}); f.Type != wire.TypeError || ran != 0 || !strings.Contains(f.Err, "not held") {
		t.Fatalf("unpinned ID: got %+v after %d jobs, want an error frame and nothing run", f, ran)
	}
	// A valid document of another predictor, under enc's ID.
	forged := []byte(`{"algorithm":"REPTree","skin":{"root":{"v":30,"leaf":true}},"screen":{"root":{"v":31,"leaf":true}}}`)
	if f, ran := request(&wire.ShardRequest{PredictorID: enc.ID(), Predictor: forged}); f.Type != wire.TypeError || ran != 0 || !strings.Contains(f.Err, "hashes to") {
		t.Fatalf("document not matching its ID: got %+v after %d jobs, want an error frame and nothing run", f, ran)
	}
	if f, ran := request(&wire.ShardRequest{PredictorID: enc.ID()}); f.Type != wire.TypeError || ran != 0 {
		t.Fatalf("ID after a refused document: got %+v after %d jobs, want an error frame", f, ran)
	}
	if f, ran := request(&wire.ShardRequest{PredictorID: enc.ID(), Predictor: enc.Doc()}); f.Type != wire.TypeDone || ran != 1 {
		t.Fatalf("full request after the refusals: got %+v after %d jobs, want done", f, ran)
	}
	if f, ran := request(&wire.ShardRequest{PredictorID: enc.ID()}); f.Type != wire.TypeDone || ran != 1 {
		t.Fatalf("ID after the document crossed: got %+v after %d jobs, want done", f, ran)
	}
	if _, hello := dial(); len(hello.Predictors) != 1 || hello.Predictors[0] != enc.ID() {
		t.Fatalf("new connection's hello advertised %v, want [%s]", hello.Predictors, enc.ID())
	}
}
