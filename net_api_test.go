package repro_test

import (
	"context"
	"fmt"
	"io"
	stdnet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/wire"
)

// countingSink tallies per-job sample counts and skin sums — an
// order-insensitive, bit-exact fingerprint of the telemetry stream
// (per-job delivery order is FIFO on both the in-process and the
// cross-process path, so the float sums must match exactly).
type countingSink struct {
	mu     sync.Mutex
	counts map[int]int
	sums   map[int]float64
}

func newCountingSink() *countingSink {
	return &countingSink{counts: map[int]int{}, sums: map[int]float64{}}
}

func (c *countingSink) Accept(job repro.SinkJobID, s repro.Sample) {
	c.mu.Lock()
	c.counts[int(job)]++
	c.sums[int(job)] += s.SkinC
	c.mu.Unlock()
}

func (c *countingSink) Close() error { return nil }

// total is the number of samples accepted across all jobs.
func (c *countingSink) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.counts {
		n += k
	}
	return n
}

// startNetDaemon runs an in-process worker daemon (the TCP equivalent of
// `ustaworker -listen`) and returns its address.
func startNetDaemon(t *testing.T, capacity int) string {
	t.Helper()
	srv := &fleetnet.Server{Capacity: capacity}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// TestNetRunnerMatchesLocalTable1 is the networked fleet's acceptance
// test: the paper's Table 1 scenario dispatched to two live TCP worker
// daemons must produce byte-identical analytics cells and telemetry to the
// in-process LocalRunner.
func TestNetRunnerMatchesLocalTable1(t *testing.T) {
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	pred := scenarioPipeline().Predictor()

	type cell struct {
		name                string
		seed                int64
		maxSkinC, maxScrC   float64
		avgFreqMHz, energyJ float64
		workDone, slowdown  float64
	}
	run := func(label string, opts ...repro.ScenarioOption) ([]cell, *countingSink, repro.RunStats) {
		t.Helper()
		cs := newCountingSink()
		res, err := repro.RunScenario(context.Background(), spec,
			append([]repro.ScenarioOption{repro.ScenarioPredictor(pred), repro.ScenarioSink(cs)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cells := make([]cell, len(res.Results))
		for i, jr := range res.Results {
			r := jr.Result
			cells[i] = cell{
				name: jr.Name, seed: jr.SeedUsed,
				maxSkinC: r.MaxSkinC, maxScrC: r.MaxScreenC,
				avgFreqMHz: r.AvgFreqMHz, energyJ: r.EnergyJ,
				workDone: r.WorkDone, slowdown: r.Slowdown(),
			}
		}
		return cells, cs, res.RunStats
	}
	requireEqual := func(label string, got, ref []cell, gotSink, refSink *countingSink) {
		t.Helper()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: cell %d diverged from local:\ngot  %+v\nwant %+v", label, i, got[i], ref[i])
			}
			if gotSink.counts[i] != refSink.counts[i] || gotSink.sums[i] != refSink.sums[i] {
				t.Fatalf("%s: job %d telemetry diverged: %d samples / sum %v, local %d / %v",
					label, i, gotSink.counts[i], gotSink.sums[i], refSink.counts[i], refSink.sums[i])
			}
			if refSink.counts[i] == 0 {
				t.Fatalf("job %d delivered no samples", i)
			}
		}
	}

	hosts := []string{startNetDaemon(t, 2), startNetDaemon(t, 2)}
	ref, refSink, _ := run("local workers=1", repro.ScenarioWorkers(1))

	// RunScenario runs on the caller's runner as given and returns what it
	// measured in SweepResult.RunStats (ustasim -stats-json writes it).
	nr := repro.NewNetRunner(hosts)
	got, gotSink, st := run("net 2 daemons", repro.ScenarioRunner(nr))
	requireEqual("net 2 daemons", got, ref, gotSink, refSink)
	if len(st.Hosts) != len(hosts) {
		t.Fatalf("sweep run stats: %d hosts, want %d", len(st.Hosts), len(hosts))
	}
	var items int
	for _, h := range st.Hosts {
		items += h.ItemsCompleted
	}
	if items == 0 {
		t.Fatal("sweep run stats: zero items completed after a successful networked run")
	}
}

// TestNetRunnerConcurrentSweepsOwnStats: two sweeps of different sizes
// run at once on one shared net runner, and each sweep's RunStats
// describes that sweep alone: both hosts listed, and with one job per
// work item, completed items summing to the sweep's own cell count.
func TestNetRunnerConcurrentSweepsOwnStats(t *testing.T) {
	const specFmt = `{"version": 1, "workloads": [%s], "schemes": [{"name": "baseline"}],
	  "duration": {"scale": 0.5}, "seeds": {"policy": "indexed", "base": 11}, "trace_free": true}`
	specs := []*repro.ScenarioSpec{}
	for _, workloads := range []string{`"all"`, `"skype", "youtube", "game"`} {
		spec, err := repro.ParseScenario([]byte(fmt.Sprintf(specFmt, workloads)))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}

	hosts := []string{startNetDaemon(t, 2), startNetDaemon(t, 2)}
	nr := repro.NewNetRunner(hosts)
	nr.ShardSize = 1
	results := make([]*repro.SweepResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = repro.RunScenario(context.Background(), spec, repro.ScenarioRunner(nr))
		}()
	}
	wg.Wait()

	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if err := res.FirstError(); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		st := res.RunStats
		if len(st.Hosts) != len(hosts) {
			t.Fatalf("sweep %d: run stats list %d hosts, want %d: %s", i, len(st.Hosts), len(hosts), st)
		}
		items := 0
		for _, h := range st.Hosts {
			items += h.ItemsCompleted
		}
		if items != len(res.Results) {
			t.Fatalf("sweep %d: %d items completed, want its own %d cells: %s", i, items, len(res.Results), st)
		}
	}
	if len(results[0].Results) == len(results[1].Results) {
		t.Fatalf("both sweeps have %d cells; the test needs different sizes", len(results[0].Results))
	}
}

// TestNetRunnerRetryMatchesLocalTable1 kills a worker daemon's connection
// mid-shard — after exactly one result frame — and requires the retried
// sweep to stay byte-identical to the in-process runner: lost jobs rerun
// on the surviving daemon with position-derived seeds, and the dead
// shard's partially-streamed telemetry is delivered exactly once.
func TestNetRunnerRetryMatchesLocalTable1(t *testing.T) {
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	pred := scenarioPipeline().Predictor()

	run := func(label string, opts ...repro.ScenarioOption) ([]repro.JobResult, *countingSink) {
		t.Helper()
		cs := newCountingSink()
		res, err := repro.RunScenario(context.Background(), spec,
			append([]repro.ScenarioOption{repro.ScenarioPredictor(pred), repro.ScenarioSink(cs)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res.Results, cs
	}
	ref, refSink := run("local workers=1", repro.ScenarioWorkers(1))

	// The doomed daemon sits behind a connection-killing proxy; the healthy
	// one behind a slow-start proxy, so the doomed host claims the first
	// shard before the healthy host's handshake lands.
	doomed := startNetDaemon(t, 1)
	killer := startFrameKillingProxy(t, doomed, 1)
	healthy := startSlowStartProxy(t, startNetDaemon(t, 1), 600*time.Millisecond)

	var logs strings.Builder
	var logMu sync.Mutex
	runner := repro.NewNetRunner([]string{killer, healthy})
	runner.ShardSize = 4
	runner.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs.WriteString(format)
		logs.WriteByte('\n')
	}

	got, gotSink := run("net kill+retry", repro.ScenarioRunner(runner))
	logMu.Lock()
	captured := logs.String()
	logMu.Unlock()
	if !strings.Contains(captured, "requeueing") {
		t.Fatalf("worker kill did not trigger a retry; coordinator log:\n%s", captured)
	}
	for i := range ref {
		if got[i].Err != nil {
			t.Fatalf("job %d failed after retry: %v", i, got[i].Err)
		}
		if got[i].SeedUsed != ref[i].SeedUsed || got[i].Name != ref[i].Name ||
			got[i].Result.MaxSkinC != ref[i].Result.MaxSkinC ||
			got[i].Result.EnergyJ != ref[i].Result.EnergyJ ||
			got[i].Result.AvgFreqMHz != ref[i].Result.AvgFreqMHz {
			t.Fatalf("job %d diverged from local after kill+retry:\ngot  %+v\nwant %+v",
				i, got[i], ref[i])
		}
		if gotSink.counts[i] != refSink.counts[i] || gotSink.sums[i] != refSink.sums[i] {
			t.Fatalf("job %d telemetry diverged after kill+retry: %d samples / sum %v, local %d / %v",
				i, gotSink.counts[i], gotSink.sums[i], refSink.counts[i], refSink.sums[i])
		}
	}
}

// startFrameKillingProxy fronts a worker daemon and cuts the first
// connection after forwarding resultsUntil result frames — a worker
// process dying mid-shard, as seen from the coordinator. Later
// connections relay untouched.
func startFrameKillingProxy(t *testing.T, backend string, resultsUntil int) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			kill := false
			once.Do(func() { kill = true })
			wg.Add(1)
			go func(client stdnet.Conn, kill bool) {
				defer wg.Done()
				defer client.Close()
				server, err := stdnet.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go func() {
					io.Copy(server, client)
					server.Close()
				}()
				if !kill {
					io.Copy(client, server)
					return
				}
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
						if results >= resultsUntil {
							return // defers cut both sides: the "kill"
						}
					}
				}
			}(client, kill)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// startSlowStartProxy fronts a backend with a fixed pre-handshake delay,
// keeping that host out of the early dispatch race so the test controls
// which host claims the first shard.
func startSlowStartProxy(t *testing.T, backend string, delay time.Duration) string {
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
