package net_test

// Shard-runner tests: the coordinator cuts a batch into shards (work
// items) and dispatches them to worker daemons over TCP.

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/workload"
)

// startServers runs n in-process worker daemons of the given capacity and
// returns their addresses.
func startServers(t *testing.T, n, capacity int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startServer(t, &fleetnet.Server{Capacity: capacity})
	}
	return addrs
}

// TestShardRunnerMatchesLocal is the shard determinism contract at every
// fleet width: the same batch cut into one-job shards over 1, 2 or 4
// daemons must be byte-identical to the in-process pool — results, seeds,
// and the telemetry stream.
func TestShardRunnerMatchesLocal(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 2, Seed: 42}
	ref, refTally := localRef(t, cfg, n)

	for _, hosts := range []int{1, 2, 4} {
		nr := fleetnet.New(startServers(t, hosts, 1))
		nr.ShardSize = 1
		tl := newTally()
		c := cfg
		c.Sink = tl.sink()
		got, _ := nr.Run(context.Background(), c, specJobs(n, true))
		assertIdentical(t, fmt.Sprintf("hosts=%d", hosts), ref, got, refTally, tl)
	}
}

// TestShardRunnerProgress: OnProgress and OnResult fire once per job across
// all shards, serialized, ending at (total, total).
func TestShardRunnerProgress(t *testing.T) {
	jobs := specJobs(5, true)
	var dones []int
	var names []string
	cfg := fleet.Config{
		Workers:    1,
		Seed:       7,
		OnProgress: func(done, total int) { dones = append(dones, done*100+total) },
		OnResult:   func(r fleet.JobResult) { names = append(names, r.Name) },
	}
	nr := fleetnet.New(startServers(t, 2, 1))
	nr.ShardSize = 2
	results, _ := nr.Run(context.Background(), cfg, jobs)
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(jobs) || len(names) != len(jobs) {
		t.Fatalf("progress %d / results %d callbacks, want %d", len(dones), len(names), len(jobs))
	}
	for i, d := range dones {
		if d != (i+1)*100+len(jobs) {
			t.Fatalf("progress call %d = %d, want done=%d total=%d", i, d, i+1, len(jobs))
		}
	}
}

// TestShardRunnerSpeclessJobs: jobs without a serializable spec fail alone
// with a descriptive error while spec'd neighbors complete.
func TestShardRunnerSpeclessJobs(t *testing.T) {
	jobs := specJobs(4, true)
	jobs[2].Spec = nil
	nr := fleetnet.New(startServers(t, 2, 1))
	results, _ := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, jobs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "no serializable spec") {
				t.Fatalf("spec-less job err = %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d should have survived: %v", i, r.Err)
		}
	}
}

// TestShardRunnerWorkerCrash: the only worker dying mid-shard, right
// after it reports its first job, is redialed and the unreported jobs of
// that shard retried — every job succeeds, byte-identical to the local
// runner, telemetry included, and the stats show the redial.
func TestShardRunnerWorkerCrash(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 1, Seed: 42}
	ref, refTally := localRef(t, cfg, n)

	proxy := startKillingProxy(t, startServer(t, &fleetnet.Server{Capacity: 1}), 1)
	nr := fastRecovery([]string{proxy.addr()})
	nr.ShardSize = 3
	nr.Logf = t.Logf
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := nr.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "crash", ref, got, refTally, tl)
	if st.Hosts[0].Redials < 1 {
		t.Fatalf("the crashed worker was not redialed: %s", st)
	}
}

// TestShardRunnerCancellation: cancelling a run mid-flight over two
// daemons marks every unfinished job with the context error (finished
// jobs keep their results), returns promptly, and leaves the daemons
// serving: the next run on the same fleet completes byte-identical to
// local.
func TestShardRunnerCancellation(t *testing.T) {
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
	hosts := startServers(t, 2, 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, _ := fleetnet.New(hosts).Run(ctx, fleet.Config{Workers: 1, Seed: 1}, longJobs(400))
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
		t.Fatal("400 long jobs all finished before a 30ms cancel; expected at least one cancellation")
	}

	const n = 4
	cfg := fleet.Config{Workers: 1, Seed: 5}
	ref, refTally := localRef(t, cfg, n)
	tl := newTally()
	cfg.Sink = tl.sink()
	got, _ := fleetnet.New(hosts).Run(context.Background(), cfg, specJobs(n, true))
	assertIdentical(t, "after cancel", ref, got, refTally, tl)
}

// TestShardRunnerBadCommand: a host entry that points at something other
// than a worker daemon — here a server that answers with an HTTP error
// page — fails every job with an error naming that host, within the
// all-dead deadline, and is never sent a shard.
func TestShardRunnerBadCommand(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var received atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
				n, _ := io.Copy(io.Discard, conn)
				received.Add(n)
			}()
		}
	}()

	nr := fleetnet.New([]string{addr})
	nr.BackoffBase = 10 * time.Millisecond
	nr.AllDeadDeadline = 300 * time.Millisecond
	start := time.Now()
	results, _ := nr.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(2, true))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v to give up on a host that is not a worker", elapsed)
	}
	for i, res := range results {
		if res.Err == nil || !strings.Contains(res.Err.Error(), addr) {
			t.Fatalf("job %d should carry the failure of host %s, got %v", i, addr, res.Err)
		}
	}
	ln.Close()
	wg.Wait()
	if n := received.Load(); n != 0 {
		t.Fatalf("the non-worker host was sent %d bytes; want it refused before any request", n)
	}
}
