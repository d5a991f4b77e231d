package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness when runAll
// re-executes it as a workload's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestHarnessSmoke runs every workload, each in its own child process, on
// grids of at most 16 cells with two reps and the traced pass, and checks
// that all checks pass and every catalogued metric is printed with its unit.
func TestHarnessSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--smoke", "--seconds", "0", "--trace", "1", "--seed", "2",
		"--dir", "..", "--work", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	printed := map[string]string{} // "workload metric" → unit
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) < 4 {
			t.Fatalf("malformed metric line %q", l)
		}
		printed[f[0]+" "+f[1]] = f[3]
	}
	nonzero := map[string]bool{}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if unit, ok := printed[w.name+" "+m.name]; !ok || unit != m.unit {
				t.Errorf("%s %s: printed unit %q, want %q", w.name, m.name, unit, m.unit)
			}
		}
		for _, l := range perLayer {
			if unit, ok := printed[w.name+" "+l.name]; !ok || unit != l.unit {
				t.Errorf("%s %s: printed unit %q, want %q", w.name, l.name, unit, l.unit)
			}
			if v := res.Metrics[w.name+"/"+l.name].Value; v != 0 {
				nonzero[l.name] = true
			}
		}
	}
	// Retries and duplicated work are 0 on a healthy loopback service.
	retries := map[string]bool{"net.hedges": true, "net.redials": true}
	for _, l := range perLayer {
		if !nonzero[l.name] && !retries[l.name] {
			t.Errorf("per-layer metric %s is 0 on every workload", l.name)
		}
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks BENCHMARK.json's limits and that it lists
// exactly the harness's workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) || len(bf.Workloads) > 8 {
		t.Errorf("%d workloads, harness has %d (limit 8)", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d = %q, harness has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, harness has %d (limit 16)", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		name(m.Name)
		if i < len(endToEnd) && (metricDef{m.Name, m.Unit, m.Better} != endToEnd[i]) {
			t.Errorf("end-to-end %d = %+v, harness has %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, harness has %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		if i < len(perLayer) && (metricDef{m.Name, m.Unit, m.Better} != perLayer[i].metricDef) {
			t.Errorf("per-layer %d = %+v, harness has %+v", i, m, perLayer[i].metricDef)
		}
	}
	// Every per-layer metric names the end-to-end metric and the workload it
	// should move.
	for _, l := range perLayer {
		if _, ok := workloadByName(l.workload); !ok {
			t.Errorf("%s moves unknown workload %q", l.name, l.workload)
		}
		found := false
		for _, m := range endToEnd {
			found = found || m.name == l.moves
		}
		if !found {
			t.Errorf("%s moves %q, not a gated end-to-end metric", l.name, l.moves)
		}
	}
}
