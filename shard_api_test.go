package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro"
)

// TestShardRunnerMatchesLocalTable1 is the sharded-fleet acceptance test:
// the paper's Table 1 scenario must produce byte-identical analytics cells
// under the in-process runner (workers 1 and GOMAXPROCS) and the TCP
// runner cutting it into one-cell shards over four worker daemons, with
// every job's telemetry delivered across the connection.
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

	hosts := make([]string, 4)
	for i := range hosts {
		hosts[i] = startNetDaemon(t, 1)
	}
	nr := repro.NewNetRunner(hosts)
	nr.ShardSize = 1

	ref, refSink := run("local workers=1", repro.ScenarioWorkers(1))
	runs := []struct {
		label string
		opt   repro.ScenarioOption
	}{
		{"local workers=GOMAXPROCS", repro.ScenarioWorkers(0)},
		{"net 4 daemons, one cell per shard", repro.ScenarioRunner(nr)},
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

// TestShardRunnerSpeclessJobFailsDescriptively: a spec-less hand-built
// job cannot be shipped to a worker daemon, and the error says why.
func TestShardRunnerSpeclessJobFailsDescriptively(t *testing.T) {
	jobs := []repro.Job{{Workload: repro.WorkloadByName("skype", 1), DurSec: 10}}
	nr := repro.NewNetRunner([]string{startNetDaemon(t, 1)})
	results, _ := nr.Run(context.Background(), repro.FleetConfig{Seed: 1}, jobs)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "no serializable spec") {
		t.Fatalf("err = %v, want a descriptive spec error", results[0].Err)
	}
}
