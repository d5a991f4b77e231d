package repro_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet/net/chaos"
)

// TestChaosScenarioCSVIdentity is the public-API half of the chaos
// acceptance (CI's chaos-smoke runs it): the reduced Table 1 sweep
// dispatched through two worker daemons, each behind a seeded
// fault-injecting proxy, must write byte-identical aggregate CSVs to the
// in-process runner — faults may cost retries, never telemetry or cells.
func TestChaosScenarioCSVIdentity(t *testing.T) {
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	pred := scenarioPipeline().Predictor()

	csvs := func(label string, opts ...repro.ScenarioOption) (comfort, heat []byte) {
		t.Helper()
		res, err := repro.RunScenario(context.Background(), spec,
			append([]repro.ScenarioOption{repro.ScenarioPredictor(pred)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var cb, hb bytes.Buffer
		if err := repro.WriteComfortCSV(&cb, res.ComfortByUser()); err != nil {
			t.Fatalf("%s: comfort csv: %v", label, err)
		}
		if err := res.ViolationHeatMap().WriteCSV(&hb); err != nil {
			t.Fatalf("%s: heatmap csv: %v", label, err)
		}
		return cb.Bytes(), hb.Bytes()
	}

	refComfort, refHeat := csvs("local", repro.ScenarioWorkers(1))

	var hosts []string
	for i, seed := range []int64{101, 202} {
		backend := startNetDaemon(t, 1)
		p, err := chaos.Start(backend, chaos.NewSchedule(seed, 4), t.Logf)
		if err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		t.Cleanup(p.Close)
		hosts = append(hosts, p.Addr())
	}
	nr := repro.NewNetRunner(hosts)
	nr.MaxRetries = 100
	nr.ShardSize = 2
	nr.HeartbeatTimeout = 2 * time.Second
	nr.BackoffBase = 10 * time.Millisecond
	nr.BackoffMax = 100 * time.Millisecond

	gotComfort, gotHeat := csvs("chaos net", repro.ScenarioRunner(nr))
	if !bytes.Equal(gotComfort, refComfort) {
		t.Fatalf("comfort.csv diverged under chaos:\n%s\nvs local:\n%s", gotComfort, refComfort)
	}
	if !bytes.Equal(gotHeat, refHeat) {
		t.Fatalf("heatmap.csv diverged under chaos:\n%s\nvs local:\n%s", gotHeat, refHeat)
	}
}
