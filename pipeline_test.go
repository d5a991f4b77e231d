package repro_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/sweep"
)

// pipelineSpec is a 12-cell sweep (3 workloads × 2 participants ×
// {baseline, usta@37}) small enough to run many times per test; traceFree
// selects the streamed-violation path over the post-hoc trace fold.
func pipelineSpec(traceFree bool) string {
	return fmt.Sprintf(`{
	  "version": 1,
	  "name": "pipeline-pin",
	  "workloads": ["skype", "youtube", "game"],
	  "population": ["a", "b"],
	  "schemes": [{"name": "baseline"}, {"name": "usta", "controller": "usta", "limit_c": 37}],
	  "duration": {"scale": 0.05},
	  "seeds": {"policy": "indexed", "base": 11},
	  "trace_free": %t
	}`, traceFree)
}

// canonicalJSON re-marshals a decoded JSON value, so two comfort tables
// compare through the same encoder whichever pipeline produced them.
func canonicalJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// keepLedgered truncates a sweep journal right after its k-th ledgered
// cell record — the shape of a coordinator killed k cells into a run.
// Frames are [4B LE len][1B type][payload][4B CRC] after an 8-byte header.
func keepLedgered(t *testing.T, wal []byte, k int) []byte {
	t.Helper()
	const recCell = 0x03
	off, cells := 8, 0
	for off < len(wal) && cells < k {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		if wal[off+4] == recCell {
			cells++
		}
		off += 4 + 1 + n + 4
	}
	if cells != k {
		t.Fatalf("journal holds %d cell records, want at least %d", cells, k)
	}
	return wal[:off]
}

// scenarioComfort runs spec through RunScenario and returns its comfort
// table as canonical JSON.
func scenarioComfort(t *testing.T, spec *repro.ScenarioSpec, opts ...repro.ScenarioOption) string {
	t.Helper()
	res, err := repro.RunScenario(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.ComfortByUser())
	if err != nil {
		t.Fatal(err)
	}
	return canonicalJSON(t, b)
}

// serverComfort runs the job journaled (or to be submitted) in stateDir on
// an in-process JobServer and returns the job's comfort table and the
// aggregates of its final /events frame, both as canonical JSON. An empty
// specJSON recovers the journaled job "j1" instead of submitting.
func serverComfort(t *testing.T, stateDir string, runner repro.Runner, pred *repro.Predictor, specJSON string) (comfort, aggregates string) {
	t.Helper()
	store, err := durable.OpenStore(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	js := fleetnet.NewJobServer(runner)
	js.Workers = 2
	js.Predictor = pred
	js.Store = store
	if err := js.Recover(); err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	ts := httptest.NewServer(js.Handler())
	defer ts.Close()

	id := "j1"
	if specJSON != "" {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(specJSON))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct{ ID string }
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || sub.ID != id {
			t.Fatalf("submit: id %q, err %v", sub.ID, err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status  string          `json:"status"`
			Error   string          `json:"error"`
			Done    int             `json:"done"`
			Total   int             `json:"total"`
			Comfort json.RawMessage `json:"comfort"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch body.Status {
		case "done":
			if body.Done != body.Total {
				t.Fatalf("job done at %d/%d cells", body.Done, body.Total)
			}
			return canonicalJSON(t, body.Comfort), finalAggregates(t, ts.URL+"/jobs/"+id+"/events")
		case "failed", "cancelled":
			t.Fatalf("job %s: %s", body.Status, body.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %s %d/%d", body.Status, body.Done, body.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// finalAggregates reads an SSE snapshot stream to its end and returns the
// last frame's aggregates as canonical JSON; that frame must be final.
func finalAggregates(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			last = data
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var frame struct {
		Final      bool            `json:"final"`
		Aggregates json.RawMessage `json:"aggregates"`
	}
	if err := json.Unmarshal([]byte(last), &frame); err != nil || !frame.Final {
		t.Fatalf("last event frame (final %t, err %v): %.200s", frame.Final, err, last)
	}
	return canonicalJSON(t, frame.Aggregates)
}

// TestScenarioAndJobServerPipelinesAgree pins the two sweep entry points
// against each other: the same spec through RunScenario and through an
// in-process JobServer must yield byte-equal comfort tables — trace-free
// and traced, on the local pool and on a one-daemon networked runner,
// fresh and resumed from a journal truncated mid-ledger. The resumed
// JobServer's final event frame must also carry the fresh one's
// aggregates byte for byte.
func TestScenarioAndJobServerPipelinesAgree(t *testing.T) {
	pred := scenarioPipeline().Predictor()
	host := startNetDaemon(t, 2)
	runners := []struct {
		name string
		new  func() repro.Runner
	}{
		{"local", func() repro.Runner { return nil }},
		{"net", func() repro.Runner { return repro.NewNetRunner([]string{host}) }},
	}
	for _, traceFree := range []bool{true, false} {
		specJSON := pipelineSpec(traceFree)
		spec, err := repro.ParseScenario([]byte(specJSON))
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		for _, rn := range runners {
			label := fmt.Sprintf("trace_free=%t/%s", traceFree, rn.name)
			dir := t.TempDir()

			walPath := filepath.Join(dir, "sweep.wal")
			opts := []repro.ScenarioOption{repro.ScenarioPredictor(pred), repro.ScenarioWorkers(2)}
			if r := rn.new(); r != nil {
				opts = append(opts, repro.ScenarioRunner(r))
			}
			got := map[string]string{
				"RunScenario fresh": scenarioComfort(t, spec, append(opts, repro.ScenarioWAL(walPath))...),
			}
			wal, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			resumed := filepath.Join(dir, "resumed.wal")
			if err := os.WriteFile(resumed, keepLedgered(t, wal, 5), 0o644); err != nil {
				t.Fatal(err)
			}
			got["RunScenario resumed"] = scenarioComfort(t, spec,
				append(opts, repro.ScenarioWAL(resumed), repro.ScenarioResume())...)

			stateDir := filepath.Join(dir, "state")
			var freshAgg, resumedAgg string
			got["JobServer fresh"], freshAgg = serverComfort(t, stateDir, rn.new(), pred, specJSON)
			jwal, err := os.ReadFile(filepath.Join(stateDir, "j1.wal"))
			if err != nil {
				t.Fatal(err)
			}
			crashDir := filepath.Join(dir, "crashed")
			if err := os.MkdirAll(crashDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashDir, "j1.wal"), keepLedgered(t, jwal, 5), 0o644); err != nil {
				t.Fatal(err)
			}
			got["JobServer resumed"], resumedAgg = serverComfort(t, crashDir, rn.new(), pred, "")
			if resumedAgg != freshAgg {
				t.Fatalf("%s: resumed JobServer's final SSE aggregates diverged\n got %s\nwant %s", label, resumedAgg, freshAgg)
			}

			if want == "" {
				want = got["RunScenario fresh"]
			}
			for path, g := range got {
				if g != want {
					t.Fatalf("%s: %s comfort diverged\n got %s\nwant %s", label, path, g, want)
				}
			}
		}
	}
}

// TestScenarioProgressReportsFullGrid resumes a 12-cell sweep with 8
// cells ledgered: progress must count the restored cells and report
// against the whole grid (9/12 … 12/12), like the job server's status.
func TestScenarioProgressReportsFullGrid(t *testing.T) {
	spec, err := repro.ParseScenario([]byte(pipelineSpec(true)))
	if err != nil {
		t.Fatal(err)
	}
	pred := scenarioPipeline().Predictor()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "sweep.wal")
	scenarioComfort(t, spec, repro.ScenarioPredictor(pred), repro.ScenarioWAL(walPath))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.wal")
	if err := os.WriteFile(resumed, keepLedgered(t, wal, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls []string
	scenarioComfort(t, spec, repro.ScenarioPredictor(pred), repro.ScenarioWAL(resumed), repro.ScenarioResume(),
		repro.ScenarioProgress(func(done, total int) { calls = append(calls, fmt.Sprintf("%d/%d", done, total)) }))
	if got, want := strings.Join(calls, " "), "9/12 10/12 11/12 12/12"; got != want {
		t.Fatalf("progress = %q, want %q", got, want)
	}
}

// whatIfSpec is the one-user what-if query (participant c, four everyday
// workloads, stock ondemand against USTA at c's limit, 600 s each: eight
// trace-free cells), with a corpus seed to fill in.
const whatIfSpec = `{
  "version": 1,
  "name": "whatif",
  "workloads": ["skype", "game", "youtube", "antutu-cpu"],
  "population": ["c"],
  "schemes": [{"name": "baseline"}, {"name": "usta", "controller": "usta"}],
  "duration": {"sec": 600},
  "seeds": {"base": 1, "workload": 1},
  "predictor": {"corpus_seed": %d, "corpus_per_run_sec": 1200},
  "trace_free": true
}`

// whatIfRuns numbers TestRepeatedScenarioTrainsOnce's runs.
var whatIfRuns atomic.Int64

// predictorTap is an in-process runner that records the encoded predictor
// each sweep hands its runner.
type predictorTap struct{ docs []*fleet.EncodedPredictor }

func (p *predictorTap) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) ([]fleet.JobResult, fleet.RunStats) {
	p.docs = append(p.docs, cfg.Predictor)
	return fleet.LocalRunner{}.Run(ctx, cfg, jobs)
}

// TestRepeatedScenarioTrainsOnce: a warm RunScenario of the what-if spec
// reuses the cold run's self-trained predictor instead of retraining, and
// its stats and the predictor bytes and ID its runner receives are
// identical to the cold run's.
func TestRepeatedScenarioTrainsOnce(t *testing.T) {
	// The corpus seed is used by no other test, nor by an earlier run of
	// this one under -count, so the first sweep trains.
	spec, err := repro.ParseScenario([]byte(fmt.Sprintf(whatIfSpec, 1000+whatIfRuns.Add(1))))
	if err != nil {
		t.Fatal(err)
	}
	tap := &predictorTap{}
	var stats [2][]byte
	for i, want := range []int64{1, 0} {
		t0, _ := sweep.PredictorCounts()
		res, err := repro.RunScenario(context.Background(), spec, repro.ScenarioRunner(tap))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		if t1, _ := sweep.PredictorCounts(); t1-t0 != want {
			t.Fatalf("run %d trained %d predictors, want %d", i, t1-t0, want)
		}
		if stats[i], err = json.Marshal(res.Stats); err != nil {
			t.Fatal(err)
		}
	}
	if string(stats[0]) != string(stats[1]) {
		t.Fatalf("warm run's stats diverged:\n got %s\nwant %s", stats[1], stats[0])
	}
	if len(tap.docs) != 2 || tap.docs[0] == nil || tap.docs[1] == nil ||
		string(tap.docs[0].Doc()) != string(tap.docs[1].Doc()) || tap.docs[0].ID() != tap.docs[1].ID() {
		t.Fatal("warm run shipped different predictor bytes")
	}
}
