package repro_test

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"repro"
)

// TestMain lets the test binary double as a shard worker: NewShardRunner's
// default command re-executes the current binary, and ShardWorkerMain
// serves the shard instead of running the tests.
func TestMain(m *testing.M) {
	repro.ShardWorkerMain()
	os.Exit(m.Run())
}

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

// TestShardRunnerMatchesLocalTable1 is the sharded-fleet acceptance test:
// the paper's Table 1 scenario must produce byte-identical analytics cells
// under the in-process runner (workers 1 and GOMAXPROCS) and the
// multi-process shard runner (2 and 4 worker subprocesses), with every
// job's telemetry delivered across the process boundary.
func TestShardRunnerMatchesLocalTable1(t *testing.T) {
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
	run := func(label string, opt repro.ScenarioOption) ([]cell, *countingSink) {
		t.Helper()
		cs := newCountingSink()
		res, err := repro.RunScenario(context.Background(), spec,
			repro.ScenarioPredictor(pred), repro.ScenarioSink(cs), opt)
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
		return cells, cs
	}

	ref, refSink := run("local workers=1", repro.ScenarioWorkers(1))
	runs := []struct {
		label string
		opt   repro.ScenarioOption
	}{
		{"local workers=GOMAXPROCS", repro.ScenarioWorkers(0)},
		{"shard procs=2", repro.ScenarioShards(2)},
		{"shard procs=4", repro.ScenarioShards(4)},
	}
	for _, rc := range runs {
		got, gotSink := run(rc.label, rc.opt)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: cell %d diverged from local workers=1:\ngot  %+v\nwant %+v",
					rc.label, i, got[i], ref[i])
			}
		}
		for i := range ref {
			if gotSink.counts[i] != refSink.counts[i] || gotSink.sums[i] != refSink.sums[i] {
				t.Fatalf("%s: job %d telemetry diverged: %d samples / sum %v, local %d / %v",
					rc.label, i, gotSink.counts[i], gotSink.sums[i], refSink.counts[i], refSink.sums[i])
			}
			if refSink.counts[i] == 0 {
				t.Fatalf("job %d delivered no samples", i)
			}
		}
	}
}

// TestShardRunnerRequiresWorkerHook documents the self-exec contract: a
// spec-less hand-built job cannot shard, and the error says why.
func TestShardRunnerSpeclessJobFailsDescriptively(t *testing.T) {
	jobs := []repro.Job{{Workload: repro.WorkloadByName("skype", 1), DurSec: 10}}
	results, _ := repro.NewShardRunner(1).Run(context.Background(), repro.FleetConfig{Seed: 1}, jobs)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "no serializable spec") {
		t.Fatalf("err = %v, want a descriptive spec error", results[0].Err)
	}
}
