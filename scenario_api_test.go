package repro_test

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
)

// table1SpecPath is the scenario file expressing the paper's Table 1 grid
// at test scale (the full-scale twin lives in examples/sweep).
var table1SpecPath = filepath.Join("internal", "scenario", "testdata", "table1_reduced.json")

// scenarioPipeline builds the experiments pipeline whose configuration the
// reduced Table 1 scenario file mirrors (scale 0.5, corpus 1200 s, seed 42).
var (
	scenarioPlOnce sync.Once
	scenarioPl     *repro.Pipeline
)

func scenarioPipeline() *repro.Pipeline {
	scenarioPlOnce.Do(func() {
		cfg := repro.DefaultExperimentConfig()
		cfg.Scale = 0.5
		cfg.CorpusPerRunSec = 1200
		scenarioPl = repro.NewPipeline(cfg)
	})
	return scenarioPl
}

// TestExampleScenarioFilesParse keeps the bundled scenario files valid:
// the full-scale Table 1 grid in examples/ must parse and expand to the
// same shape as the reduced testdata twin.
func TestExampleScenarioFilesParse(t *testing.T) {
	spec, err := repro.LoadScenario(filepath.Join("examples", "sweep", "table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "table1" || len(spec.Schemes) != 2 {
		t.Fatalf("unexpected example spec: %+v", spec)
	}
	reduced, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seeds != reduced.Seeds {
		t.Fatalf("example and testdata Table 1 seeds diverged: %+v vs %+v", spec.Seeds, reduced.Seeds)
	}
}

// TestScenarioTable1MatchesExperiments is the API-redesign acceptance
// test: running the Table 1 scenario file through repro.RunScenario —
// including its self-trained predictor — must produce aggregates
// byte-identical to the Go-built internal/experiments path, at any worker
// count.
func TestScenarioTable1MatchesExperiments(t *testing.T) {
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	want := repro.RunTable1(scenarioPipeline())

	for _, workers := range []int{1, 3} {
		res, err := repro.RunScenario(context.Background(), spec, repro.ScenarioWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		deltas, err := res.CompareSchemes("baseline", "usta")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(deltas) != len(want.Rows) {
			t.Fatalf("workers=%d: %d cells vs %d table rows", workers, len(deltas), len(want.Rows))
		}
		for i, st := range res.Stats {
			row := want.Rows[st.Cell]
			if row.Bench != st.Workload {
				t.Fatalf("workers=%d: cell %d is %q, table row is %q", workers, st.Cell, st.Workload, row.Bench)
			}
			cell := row.Baseline
			if st.Scheme == "usta" {
				cell = row.USTA
			}
			r := st.Result
			if r.MaxScreenC != cell.MaxScreenC || r.MaxSkinC != cell.MaxSkinC || r.AvgFreqMHz/1000 != cell.AvgFreqGHz {
				t.Fatalf("workers=%d: job %d (%s) diverged from experiments path:\nscenario: screen=%v skin=%v GHz=%v\nexperiments: %+v",
					workers, i, st.Name, r.MaxScreenC, r.MaxSkinC, r.AvgFreqMHz/1000, cell)
			}
		}
	}
}

// TestObserverAndSinkStillStreamWhenTraceFree pins the WithTraceFree ×
// WithObserver/WithSink contract: trace-free runs must deliver exactly the
// samples a traced run would have recorded, to both hooks, while
// retaining no Trace or Records.
func TestObserverAndSinkStillStreamWhenTraceFree(t *testing.T) {
	w := repro.SquareWave(5, 10, 0.5, 0.9, 0.1, 120)

	traced, err := repro.NewSession(repro.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := traced.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trace == nil || ref.Trace.Len() == 0 {
		t.Fatal("reference run has no trace")
	}

	var observed []float64
	streamed := newCountingSink()
	free, err := repro.NewSession(
		repro.WithSeed(99),
		repro.WithTraceFree(),
		repro.WithObserver(func(s repro.Sample) { observed = append(observed, s.TimeSec) }),
		repro.WithSink(streamed),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := free.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.Records != nil {
		t.Fatal("trace-free run retained Trace/Records")
	}
	if len(observed) != ref.Trace.Len() {
		t.Fatalf("observer saw %d samples, traced run recorded %d rows", len(observed), ref.Trace.Len())
	}
	if streamed.total() != ref.Trace.Len() {
		t.Fatalf("sink saw %d samples, traced run recorded %d rows", streamed.total(), ref.Trace.Len())
	}
	for i, ts := range observed {
		if ts != ref.Trace.TimeSec[i] {
			t.Fatalf("observer sample %d at t=%g, trace row at t=%g", i, ts, ref.Trace.TimeSec[i])
		}
	}
	// And the aggregates must still be bit-identical to the traced run.
	if res.MaxSkinC != ref.MaxSkinC || res.EnergyJ != ref.EnergyJ || res.AvgFreqMHz != ref.AvgFreqMHz {
		t.Fatal("trace-free aggregates diverged from the traced run")
	}
}

// TestFleetSinkTagsJobs checks the batch-level sink wiring: every job's
// samples arrive tagged with its index.
func TestFleetSinkTagsJobs(t *testing.T) {
	w := repro.SquareWave(1, 10, 0.5, 0.9, 0.1, 60)
	jobs := make([]repro.Job, 3)
	for i := range jobs {
		jobs[i] = repro.Job{Workload: w, TraceFree: true}
	}
	streamed := newCountingSink()
	fl := repro.NewFleet(repro.FleetConfig{Workers: 2, Seed: 1, Sink: streamed})
	for _, r := range fl.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Trace != nil {
			t.Fatal("trace-free job retained a trace")
		}
	}
	perJob := streamed.counts
	if len(perJob) != len(jobs) {
		t.Fatalf("sink saw %d distinct jobs, want %d", len(perJob), len(jobs))
	}
	for i := range jobs {
		if perJob[i] == 0 {
			t.Fatalf("job %d produced no samples", i)
		}
		if perJob[i] != perJob[0] {
			t.Fatalf("job sample counts diverge: %v", perJob)
		}
	}
}

// TestThousandJobTraceFreeSweepStreamsToJSONL is the streaming acceptance
// test: a >1k-job trace-free sweep through a JSONL sink retains no per-job
// traces while the sink receives every sample of every job.
func TestThousandJobTraceFreeSweepStreamsToJSONL(t *testing.T) {
	spec, err := repro.ParseScenario([]byte(`{
		"version": 1,
		"name": "thousand-job-stream",
		"workloads": ["all"],
		"population": ["all"],
		"ambients_c": [10, 15, 20, 25, 30, 35, 40, 45],
		"duration": {"sec": 20},
		"trace_free": true
	}`))
	if err != nil {
		t.Fatal(err)
	}

	// Per-job sample count reference: one traced run of the same duration
	// and record period.
	ref, err := repro.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.RunFor(context.Background(), repro.WorkloadByName("skype", 1), 20)
	if err != nil {
		t.Fatal(err)
	}
	perJob := refRes.Trace.Len()
	if perJob == 0 {
		t.Fatal("reference run recorded no rows")
	}

	var buf bytes.Buffer
	js := repro.NewJSONLSink(&buf)
	res, err := repro.RunScenario(context.Background(), spec, repro.ScenarioSink(js))
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if n := len(res.Results); n != 13*10*8 {
		t.Fatalf("sweep ran %d jobs, want %d", n, 13*10*8)
	}
	for _, r := range res.Results {
		if r.Result.Trace != nil || r.Result.Records != nil {
			t.Fatalf("job %d retained Trace/Records in a trace-free sweep", r.Index)
		}
	}
	lines := 0
	seen := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		line := sc.Text()
		job := line[:strings.Index(line, ",")]
		seen[job] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(res.Results) * perJob; lines != want {
		t.Fatalf("sink received %d samples, want %d (%d jobs × %d)", lines, want, len(res.Results), perJob)
	}
	if len(seen) != len(res.Results) {
		t.Fatalf("sink saw %d distinct jobs, want %d", len(seen), len(res.Results))
	}
}

// TestScenarioViolationAnalyticsTraceFree runs a small trace-free
// ambient × limit sweep with a streaming violation sink and checks the
// heat-map analytics it feeds.
func TestScenarioViolationAnalyticsTraceFree(t *testing.T) {
	spec, err := repro.ParseScenario([]byte(`{
		"version": 1,
		"name": "heat",
		"workloads": ["skype"],
		"population": ["default"],
		"ambients_c": [15, 35],
		"limits_c": [33, 39],
		"schemes": [{"name": "usta", "controller": "usta"}],
		"duration": {"sec": 120},
		"predictor": {"corpus_per_run_sec": 900},
		"trace_free": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pred := scenarioPipeline().Predictor()

	// An external violation sink must see the same stream RunScenario's
	// own trace-free accounting uses.
	var external *repro.ViolationSink
	res, err := repro.RunScenario(context.Background(), spec, repro.ScenarioPredictor(pred),
		repro.ScenarioSink(newCountingSink()))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	external = repro.NewViolationSink(res.Grid.Limits())
	res2, err := repro.RunScenario(context.Background(), spec,
		repro.ScenarioPredictor(pred), repro.ScenarioSink(external))
	if err != nil {
		t.Fatal(err)
	}
	// Trace-free sweeps get violation data automatically (RunScenario tees
	// an internal ViolationSink); the external sink must agree.
	for i, st := range res.Stats {
		if !st.HasViolationData() {
			t.Fatalf("trace-free stat %d has no violation data; RunScenario should accumulate it", i)
		}
		if st.OverFrac != res2.Stats[i].OverFrac {
			t.Fatalf("stat %d over-frac differs across identical runs", i)
		}
	}
	stats2 := make([]repro.JobStat, len(res2.Stats))
	copy(stats2, res2.Stats)
	external.Apply(stats2)
	for i := range stats2 {
		if stats2[i].OverFrac != res.Stats[i].OverFrac || stats2[i].MeanExcessC != res.Stats[i].MeanExcessC {
			t.Fatalf("external sink disagrees with the internal accounting at job %d", i)
		}
	}
	h := res.ViolationHeatMap()
	if len(h.Rows) != 2 || len(h.Cols) != 2 {
		t.Fatalf("heat map is %dx%d, want 2x2", len(h.Rows), len(h.Cols))
	}
	for ri := range h.Rows {
		for ci := range h.Cols {
			v := h.Cells[ri][ci]
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("cell [%d][%d] = %v, want a fraction", ri, ci, v)
			}
		}
	}
	// Physics sanity: at equal limits, the hotter ambient violates at
	// least as much; at equal ambient, the lower limit violates at least
	// as much.
	if h.Cells[1][0] < h.Cells[0][0] {
		t.Fatalf("hotter ambient should violate more: %v", h.Cells)
	}
	if h.Cells[1][0] < h.Cells[1][1] {
		t.Fatalf("lower limit should violate more: %v", h.Cells)
	}
	if csv := heatCSV(t, h); !strings.Contains(csv, "ambient_c") {
		t.Fatalf("heat map CSV missing axis label:\n%s", csv)
	}
}

func heatCSV(t *testing.T, h *repro.HeatMap) string {
	t.Helper()
	var b strings.Builder
	if err := h.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
