package net_test

// Chaos-harness integration tests: the self-healing contract of the
// networked runner, proven under deterministic fault injection. Every
// test in this file routes real TCP worker daemons through
// internal/fleet/net/chaos proxies and asserts the three invariants that
// survive any seeded schedule: results and telemetry byte-identical to
// LocalRunner, telemetry exactly-once despite retries, and
// jobs failing only when their retry budget is genuinely exhausted.

import (
	"context"
	"fmt"
	stdnet "net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/net/chaos"
)

// chaosProxy fronts a backend with a fault-injecting proxy torn down with
// the test.
func chaosProxy(t *testing.T, backend string, sched *chaos.Schedule) *chaos.Proxy {
	t.Helper()
	p, err := chaos.Start(backend, sched, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// localRef runs the reference batch on LocalRunner and returns results +
// telemetry fingerprint.
func localRef(t *testing.T, cfg fleet.Config, n int) ([]fleet.JobResult, *tally) {
	t.Helper()
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	ref, _ := fleet.LocalRunner{}.Run(context.Background(), c, specJobs(n, true))
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	return ref, tl
}

// assertIdentical checks results and telemetry byte-identity against the
// local reference.
func assertIdentical(t *testing.T, label string, ref, got []fleet.JobResult, refTally, gotTally *tally) {
	t.Helper()
	if err := fleet.FirstError(got); err != nil {
		t.Fatalf("%s: run should fully recover: %v", label, err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.Index != a.Index || b.Name != a.Name || b.SeedUsed != a.SeedUsed {
			t.Fatalf("%s: job %d metadata diverged: %+v vs %+v", label, i, b, a)
		}
		if b.Result.EnergyJ != a.Result.EnergyJ || b.Result.MaxSkinC != a.Result.MaxSkinC ||
			b.Result.AvgFreqMHz != a.Result.AvgFreqMHz || b.Result.WorkDone != a.Result.WorkDone {
			t.Fatalf("%s: job %d aggregates diverged", label, i)
		}
	}
	for i := range ref {
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("%s: job %d telemetry diverged: %d/%v samples vs local %d/%v",
				label, i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
}

// fastRecovery returns a runner tuned for test-speed backoff/breaker
// cycles.
func fastRecovery(hosts []string) *fleetnet.Runner {
	nr := fleetnet.New(hosts)
	nr.BackoffBase = 10 * time.Millisecond
	nr.BackoffMax = 100 * time.Millisecond
	nr.BreakerCooldown = 50 * time.Millisecond
	return nr
}

// TestChaosByteIdentity is the headline acceptance test: for every
// seeded fault schedule — dial refusals, mid-stream drops, corrupted and
// truncated frames, jittery links — Table-1-style results and per-job
// telemetry through two chaotic hosts are byte-identical to LocalRunner.
func TestChaosByteIdentity(t *testing.T) {
	const n = 10
	cfg := fleet.Config{Workers: 2, Seed: 42}
	ref, refTally := localRef(t, cfg, n)

	for _, seed := range []int64{1, 2, 7, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			b1 := startServer(t, &fleetnet.Server{Capacity: 2})
			b2 := startServer(t, &fleetnet.Server{Capacity: 2})
			p1 := chaosProxy(t, b1, chaos.NewSchedule(seed, 6))
			p2 := chaosProxy(t, b2, chaos.NewSchedule(seed+1000, 6))

			nr := fastRecovery([]string{p1.Addr(), p2.Addr()})
			nr.ShardSize = 2
			nr.MaxRetries = 100 // fail only on genuine exhaustion, never under a bounded fault budget
			nr.HeartbeatTimeout = 2 * time.Second
			nr.Logf = t.Logf
			tl := newTally()
			c := cfg
			c.Sink = tl.sink()
			got, st := nr.Run(context.Background(), c, specJobs(n, true))
			assertIdentical(t, fmt.Sprintf("seed %d", seed), ref, got, refTally, tl)
			s1, s2 := p1.Stats(), p2.Stats()
			t.Logf("chaos stats: p1=%+v p2=%+v runner=%s", s1, s2, st)
		})
	}
}

// TestChaosSingleHostRecovery is the transient-disconnect acceptance
// criterion: a single-host inventory whose connection is cut mid-stream
// (twice) completes the run with zero failed jobs — the host recovers
// via backoff redial instead of being retired.
func TestChaosSingleHostRecovery(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 1, Seed: 9}
	ref, refTally := localRef(t, cfg, n)

	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	sched := &chaos.Schedule{Override: func(conn int) (chaos.Plan, bool) {
		if conn < 2 {
			// Cut after the hello plus a couple of frames: a classic
			// network blip mid-shard.
			return chaos.Plan{Kind: chaos.FaultDrop, DropAfterFrames: 3}, true
		}
		return chaos.Plan{Kind: chaos.FaultNone}, true
	}}
	p := chaosProxy(t, backend, sched)

	nr := fastRecovery([]string{p.Addr()})
	nr.ShardSize = 2
	nr.MaxRetries = 10
	nr.Logf = t.Logf
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := nr.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "single-host recovery", ref, got, refTally, tl)

	if len(st.Hosts) != 1 || st.Hosts[0].Redials < 1 {
		t.Fatalf("host should have recovered via redial, stats: %s", st)
	}
}

// TestChaosBlackoutAndRestart: the worker daemon is killed and restarted
// mid-run while its listener also goes dark for a dial window — the run
// rides it out and stays byte-identical.
func TestChaosBlackoutAndRestart(t *testing.T) {
	const n = 8
	cfg := fleet.Config{Workers: 1, Seed: 11}
	ref, refTally := localRef(t, cfg, n)

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backendAddr := ln.Addr().String()
	worker := &fleetnet.Server{Capacity: 1}
	serveDone := make(chan struct{})
	go func() { worker.Serve(context.Background(), ln); close(serveDone) }()

	sched := &chaos.Schedule{Override: func(int) (chaos.Plan, bool) {
		return chaos.Plan{Kind: chaos.FaultNone}, true
	}}
	p := chaosProxy(t, backendAddr, sched)
	// Dials 1-2 land in a listener blackout: after the restart kill below,
	// the first redial attempts see a dark port before the new daemon is
	// up.
	p.SetBlackout(1, 3)

	nr := fastRecovery([]string{p.Addr()})
	nr.ShardSize = 2
	nr.MaxRetries = 20
	nr.Logf = t.Logf

	// Restart the worker after the second result: kill the daemon, then
	// bring a fresh one up on the same address. Event-driven, so the
	// restart always lands mid-run.
	var results32 atomic.Int32
	restarted := make(chan struct{})
	var worker2 *fleetnet.Server
	serve2Done := make(chan struct{})
	c := cfg
	tl := newTally()
	c.Sink = tl.sink()
	c.OnResult = func(fleet.JobResult) {
		if results32.Add(1) != 2 {
			return
		}
		go func() {
			defer close(restarted)
			worker.Shutdown()
			<-serveDone
			// The port is free once the old daemon exits; a fresh daemon
			// takes over the same address.
			ln2, err := stdnet.Listen("tcp", backendAddr)
			if err != nil {
				t.Errorf("restart listen: %v", err)
				close(serve2Done)
				return
			}
			worker2 = &fleetnet.Server{Capacity: 1}
			go func() { worker2.Serve(context.Background(), ln2); close(serve2Done) }()
		}()
	}
	got, _ := nr.Run(context.Background(), c, specJobs(n, true))
	<-restarted
	assertIdentical(t, "blackout+restart", ref, got, refTally, tl)
	if worker2 != nil {
		worker2.Shutdown()
		<-serve2Done
	}
	if bs := p.Stats(); bs.Blackout == 0 {
		t.Logf("note: no dial landed in the blackout window (stats %+v)", bs)
	}
}

// TestChaosRetriesExhausted: under a schedule hostile enough that no
// attempt can ever stream a result, jobs fail — and they fail with the
// retries-exhausted cause, not a mystery error or a hang.
func TestChaosRetriesExhausted(t *testing.T) {
	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	sched := &chaos.Schedule{Override: func(int) (chaos.Plan, bool) {
		// Every connection dies right after the hello: the handshake
		// succeeds, the shard never streams back.
		return chaos.Plan{Kind: chaos.FaultDrop, DropAfterFrames: 1}, true
	}}
	p := chaosProxy(t, backend, sched)

	nr := fastRecovery([]string{p.Addr()})
	nr.ShardSize = 2
	nr.MaxRetries = 2
	nr.Logf = t.Logf
	start := time.Now()
	results, _ := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 3}, specJobs(4, true))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("exhaustion took %v; the run should fail fast once retries are spent", elapsed)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d succeeded through a link that never delivers results", i)
		}
		if !strings.Contains(r.Err.Error(), "retries exhausted") {
			t.Fatalf("job %d failed with %q, want a retries-exhausted cause", i, r.Err)
		}
	}
}

// TestChaosLocalFallback: with every dial refused and FallbackLocal set,
// the run degrades to the in-process LocalRunner after AllDeadDeadline —
// and because seeds were resolved before dispatch, the fallback output is
// byte-identical to the reference.
func TestChaosLocalFallback(t *testing.T) {
	cfg := fleet.Config{Workers: 2, Seed: 21}
	const n = 6
	ref, refTally := localRef(t, cfg, n)

	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	sched := &chaos.Schedule{Override: func(int) (chaos.Plan, bool) {
		return chaos.Plan{Kind: chaos.FaultRefuse, RefuseDial: true}, true
	}}
	p := chaosProxy(t, backend, sched)

	nr := fastRecovery([]string{p.Addr()})
	nr.FallbackLocal = true
	nr.AllDeadDeadline = 300 * time.Millisecond
	nr.Logf = t.Logf
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := nr.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "local fallback", ref, got, refTally, tl)

	if !st.FallbackUsed || st.FallbackJobs != n {
		t.Fatalf("expected all %d jobs on the local fallback, stats: %s", n, st)
	}
}

// TestChaosSlowHost: a host behind a molasses link, every frame delayed,
// keeps the item it claimed and finishes it while the healthy host drains
// the rest of the queue. Results are byte-identical, telemetry arrives
// exactly once, and every item settles exactly once.
func TestChaosSlowHost(t *testing.T) {
	const n = 4
	cfg := fleet.Config{Workers: 1, Seed: 5}
	ref, refTally := localRef(t, cfg, n)

	slowBackend := startServer(t, &fleetnet.Server{Capacity: 1})
	sched := &chaos.Schedule{Override: func(int) (chaos.Plan, bool) {
		// Alive but glacial: every frame crawls, heartbeats included, so
		// the connection never trips the heartbeat deadline.
		return chaos.Plan{Kind: chaos.FaultDelay, DelayEvery: 1, Delay: 150 * time.Millisecond}, true
	}}
	slow := chaosProxy(t, slowBackend, sched)
	// The healthy host starts late so the molasses host is guaranteed to
	// claim the first shard and stream it through the delayed link.
	healthyBackend := startServer(t, &fleetnet.Server{Capacity: 1})
	healthy := startSlowProxy(t, healthyBackend, 400*time.Millisecond)

	nr := fleetnet.New([]string{slow.Addr(), healthy})
	nr.ShardSize = 2
	nr.Logf = t.Logf
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := nr.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "slow host", ref, got, refTally, tl)
	assertStatsConsistent(t, st, n/2)
	if st.Hosts[0].ItemsCompleted < 1 {
		t.Fatalf("the molasses host finished no item: %s", st)
	}
}

// assertStatsConsistent checks the invariants every fleet.RunStats snapshot
// must satisfy after a run in which every job succeeded, whatever the
// fault schedule: each item credited to exactly one host, redials bounded
// by dial attempts, and only legal breaker states.
func assertStatsConsistent(t *testing.T, st fleet.RunStats, wantItems int) {
	t.Helper()
	if !st.FallbackUsed && st.FallbackJobs != 0 {
		t.Fatalf("fallback jobs %d without fallback used", st.FallbackJobs)
	}
	items := 0
	for _, h := range st.Hosts {
		switch h.Breaker {
		case fleetnet.BreakerClosed, fleetnet.BreakerHalfOpen, fleetnet.BreakerOpen:
		default:
			t.Fatalf("host %s: illegal breaker state %q", h.Addr, h.Breaker)
		}
		if h.Redials > 0 && h.ConnectAttempts < h.Redials+1 {
			// Every redial is a successful reconnect, so it implies its own
			// dial attempt plus the generation-zero connect before it.
			t.Fatalf("host %s: %d redials but only %d dial attempts", h.Addr, h.Redials, h.ConnectAttempts)
		}
		if h.SlotsConnected > h.Capacity {
			t.Fatalf("host %s: %d slots connected > capacity %d", h.Addr, h.SlotsConnected, h.Capacity)
		}
		items += h.ItemsCompleted
	}
	// Every item settles once, credited to the host that reported its
	// last job, even when the stream dies before the done frame. Items
	// the local fallback finished credit no host.
	if !st.FallbackUsed && items != wantItems {
		t.Fatalf("items completed sum %d, want %d", items, wantItems)
	}
}

// TestChaosRunnerStatsConsistency: the recovery counters the
// observability surface republishes are themselves trustworthy.
// Deterministic fault schedules drive redials, breaker trips and a stream
// cut between its last result and its done frame, and every final
// snapshot satisfies the cross-counter invariants.
func TestChaosRunnerStatsConsistency(t *testing.T) {
	t.Run("redials", func(t *testing.T) {
		const n = 6
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
		nr.MaxRetries = 10
		nr.Logf = t.Logf
		got, st := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 9}, specJobs(n, true))
		if err := fleet.FirstError(got); err != nil {
			t.Fatal(err)
		}
		assertStatsConsistent(t, st, n/2)
		if st.Hosts[0].Redials < 1 {
			t.Fatalf("two mid-stream drops produced no redials: %s", st)
		}
		if st.Hosts[0].ConnectAttempts < 3 {
			t.Fatalf("expected >= 3 dials (initial + 2 reconnects), got %d", st.Hosts[0].ConnectAttempts)
		}
	})

	t.Run("breaker", func(t *testing.T) {
		const n = 4
		backend := startServer(t, &fleetnet.Server{Capacity: 1})
		sched := &chaos.Schedule{Override: func(conn int) (chaos.Plan, bool) {
			if conn < 6 {
				// Enough consecutive dial refusals to trip the breaker
				// (threshold 3) through at least one open → half-open cycle.
				return chaos.Plan{Kind: chaos.FaultRefuse, RefuseDial: true}, true
			}
			return chaos.Plan{Kind: chaos.FaultNone}, true
		}}
		p := chaosProxy(t, backend, sched)
		nr := fastRecovery([]string{p.Addr()})
		nr.ShardSize = 2
		nr.MaxRetries = 10
		nr.Logf = t.Logf
		live, liveStats := fleetnet.Tracked(nr)

		// Poll live stats while the run rides out the refusals: the open
		// breaker must be observable mid-run, not just inferable after.
		done := make(chan []fleet.JobResult, 1)
		go func() {
			got, _ := live.Run(context.Background(), fleet.Config{Workers: 1, Seed: 17}, specJobs(n, true))
			done <- got
		}()
		sawOpen := false
		var results []fleet.JobResult
	poll:
		for {
			select {
			case results = <-done:
				break poll
			case <-time.After(time.Millisecond):
				if st := liveStats(); len(st.Hosts) == 1 && st.Hosts[0].Breaker != fleetnet.BreakerClosed {
					sawOpen = true
				}
			}
		}
		if err := fleet.FirstError(results); err != nil {
			t.Fatal(err)
		}
		if !sawOpen {
			t.Fatal("breaker never left closed despite 6 consecutive dial refusals")
		}
		st := liveStats()
		assertStatsConsistent(t, st, n/2)
		h := st.Hosts[0]
		if h.Breaker != fleetnet.BreakerClosed {
			t.Fatalf("breaker should close again after recovery, got %s", h.Breaker)
		}
		if h.ConnectAttempts < 7 {
			t.Fatalf("expected >= 7 dials (6 refused + success), got %d", h.ConnectAttempts)
		}
		if h.LastErr == "" {
			t.Fatal("six refused dials left no last error")
		}
	})

	t.Run("drop-before-done", func(t *testing.T) {
		// The first connection is cut right after the first item's last
		// result frame, before its done frame: nothing is left to requeue,
		// and the host that reported every job still gets the item.
		const n = 4
		cfg := fleet.Config{Workers: 1, Seed: 23}
		ref, refTally := localRef(t, cfg, n)
		backend := startServer(t, &fleetnet.Server{Capacity: 1})
		p := startKillingProxy(t, backend, 2)
		nr := fastRecovery([]string{p.addr()})
		nr.ShardSize = 2
		nr.MaxRetries = 10
		nr.Logf = t.Logf
		tl := newTally()
		c := cfg
		c.Sink = tl.sink()
		got, st := nr.Run(context.Background(), c, specJobs(n, true))
		assertIdentical(t, "drop before done", ref, got, refTally, tl)
		assertStatsConsistent(t, st, n/2)
		if st.Hosts[0].Redials < 1 {
			t.Fatalf("the cut connection was never redialed: %s", st)
		}
	})
}

// TestChaosNoGoroutineLeaks: a chaotic run — drops, redials, breaker
// cycles — unwinds to the baseline goroutine count once daemons shut
// down. Mirrors TestNoGoroutineLeaks for the recovery machinery.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s1 := &fleetnet.Server{Capacity: 2}
	ln1, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan struct{})
	go func() { s1.Serve(context.Background(), ln1); close(done1) }()
	sched := chaos.NewSchedule(77, 4)
	p, err := chaos.Start(ln1.Addr().String(), sched, nil)
	if err != nil {
		t.Fatal(err)
	}

	nr := fastRecovery([]string{p.Addr()})
	nr.ShardSize = 2
	nr.MaxRetries = 50
	got, _ := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 13}, specJobs(4, true))
	if err := fleet.FirstError(got); err != nil {
		t.Fatal(err)
	}
	p.Close()
	s1.Shutdown()
	<-done1

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			nb := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:nb])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
