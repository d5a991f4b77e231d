package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
)

// TestMain lets the test binary serve as a shard worker for the -shards
// smoke tests (the shard runner re-executes the current binary).
func TestMain(m *testing.M) {
	repro.ShardWorkerMain()
	os.Exit(m.Run())
}

// scenOpts builds a runScenario option set for one sweep file; mutate
// extras in the callback (nil for the defaults).
func scenOpts(path string, mod func(*cliOptions)) cliOptions {
	o := cliOptions{scenPath: path}
	if mod != nil {
		mod(&o)
	}
	return o
}

// TestRunScenarioSmoke drives the -scenario path end to end on a tiny
// sweep: two workloads × two ambients, trace-free, streaming to JSONL and
// dumping aggregate CSVs.
func TestRunScenarioSmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "sweep.yaml")
	spec := `
version: 1
name: smoke
workloads: [skype, game]
ambients_c: [25, 40]
duration:
  sec: 30
trace_free: true
`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(dir, "samples.jsonl")
	csvDir := filepath.Join(dir, "out")

	var out strings.Builder
	if err := runScenario(scenOpts(specPath, func(o *cliOptions) { o.workers = 2; o.jsonlPath = jsonl; o.csvDir = csvDir }), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"smoke:", "2 workloads", "4/4 jobs", "Per-user comfort", "heat map"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines == 0 {
		t.Fatal("JSONL stream is empty")
	}

	// Shard mode: the same sweep across 2 worker processes must stream the
	// same number of samples and produce the same aggregate tables.
	jsonl2 := filepath.Join(dir, "samples_sharded.jsonl")
	csvDir2 := filepath.Join(dir, "out_sharded")
	var out2 strings.Builder
	if err := runScenario(scenOpts(specPath, func(o *cliOptions) { o.workers = 2; o.shards = 2; o.jsonlPath = jsonl2; o.csvDir = csvDir2 }), &out2); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	data2, err := os.ReadFile(jsonl2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(data2), "\n"), strings.Count(string(data), "\n"); got != want {
		t.Fatalf("sharded JSONL streamed %d samples, local streamed %d", got, want)
	}
	for _, f := range []string{"comfort.csv", "heatmap.csv"} {
		local, err := os.ReadFile(filepath.Join(csvDir, f))
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := os.ReadFile(filepath.Join(csvDir2, f))
		if err != nil {
			t.Fatalf("sharded aggregate %s not written: %v", f, err)
		}
		if string(local) != string(sharded) {
			t.Fatalf("aggregate %s differs between local and sharded runs:\nlocal:\n%s\nsharded:\n%s", f, local, sharded)
		}
	}
	for _, f := range []string{"comfort.csv", "heatmap.csv"} {
		if _, err := os.Stat(filepath.Join(csvDir, f)); err != nil {
			t.Fatalf("aggregate %s not written: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(csvDir, "deltas.csv")); err == nil {
		t.Fatal("single-scheme sweep should not write deltas.csv")
	}

	// Bad spec path and bad spec content both surface as errors.
	if err := runScenario(scenOpts(filepath.Join(dir, "missing.json"), func(o *cliOptions) { o.workers = 1 }), &out); err == nil {
		t.Fatal("missing file should fail")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario(scenOpts(bad, func(o *cliOptions) { o.workers = 1 }), &out); err == nil || !strings.Contains(err.Error(), "no workloads") {
		t.Fatalf("invalid spec error = %v", err)
	}
}

// writeSmokeSpec writes the small two-axis sweep the smoke tests share.
func writeSmokeSpec(t *testing.T, dir string) string {
	t.Helper()
	specPath := filepath.Join(dir, "sweep.yaml")
	spec := `
version: 1
name: smoke
workloads: [skype, game]
ambients_c: [25, 40]
duration:
  sec: 30
trace_free: true
`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return specPath
}

// TestRunScenarioHostsSmoke is the CLI half of the networked-fleet
// acceptance: `-hosts` pointed at two live worker daemons must stream the
// same number of samples and write byte-identical aggregate tables as the
// in-process runner.
func TestRunScenarioHostsSmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSmokeSpec(t, dir)

	var addrs []string
	for i := 0; i < 2; i++ {
		srv := &fleetnet.Server{Capacity: 2}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(context.Background(), ln)
		t.Cleanup(srv.Shutdown)
		addrs = append(addrs, ln.Addr().String())
	}

	run := func(label, hosts string) (int, map[string]string) {
		t.Helper()
		jsonl := filepath.Join(dir, label+".jsonl")
		csvDir := filepath.Join(dir, label)
		var out strings.Builder
		if err := runScenario(scenOpts(specPath, func(o *cliOptions) { o.workers = 2; o.hosts = hosts; o.jsonlPath = jsonl; o.csvDir = csvDir }), &out); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		data, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]string{}
		for _, f := range []string{"comfort.csv", "heatmap.csv"} {
			tb, err := os.ReadFile(filepath.Join(csvDir, f))
			if err != nil {
				t.Fatalf("%s: aggregate %s not written: %v", label, f, err)
			}
			tables[f] = string(tb)
		}
		return strings.Count(string(data), "\n"), tables
	}

	localSamples, localTables := run("local", "")
	if localSamples == 0 {
		t.Fatal("local run streamed no samples")
	}
	netSamples, netTables := run("hosts", strings.Join(addrs, ","))
	if netSamples != localSamples {
		t.Fatalf("networked run streamed %d samples, local %d", netSamples, localSamples)
	}
	for f, want := range localTables {
		if netTables[f] != want {
			t.Fatalf("networked aggregate %s differs from local:\n%s\nvs\n%s", f, netTables[f], want)
		}
	}
}

// TestRunScenarioShardsStatsSmoke: `-shards 2` runs on the same
// coordinator as `-hosts`, so `-stats-json` reports its two spawned
// workers, and the aggregate tables match the in-process run's.
func TestRunScenarioShardsStatsSmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSmokeSpec(t, dir)

	run := func(label string, mod func(*cliOptions)) map[string]string {
		t.Helper()
		csvDir := filepath.Join(dir, label)
		var out strings.Builder
		if err := runScenario(scenOpts(specPath, func(o *cliOptions) {
			o.workers = 2
			o.csvDir = csvDir
			mod(o)
		}), &out); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tables := map[string]string{}
		for _, f := range []string{"comfort.csv", "heatmap.csv"} {
			tb, err := os.ReadFile(filepath.Join(csvDir, f))
			if err != nil {
				t.Fatalf("%s: aggregate %s not written: %v", label, f, err)
			}
			tables[f] = string(tb)
		}
		return tables
	}

	local := run("local", func(*cliOptions) {})
	statsPath := filepath.Join(dir, "stats.json")
	sharded := run("shards", func(o *cliOptions) { o.shards = 2; o.statsPath = statsPath })
	for f, want := range local {
		if sharded[f] != want {
			t.Fatalf("sharded aggregate %s differs from local:\n%s\nvs\n%s", f, sharded[f], want)
		}
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var st fleetnet.RunnerStats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Hosts) != 2 {
		t.Fatalf("stats report %d hosts, want the 2 shard workers:\n%s", len(st.Hosts), data)
	}
	items := 0
	for _, h := range st.Hosts {
		items += h.ItemsCompleted
	}
	if items == 0 {
		t.Fatalf("stats report no completed items:\n%s", data)
	}
}

// TestRunScenarioResumeSmoke is the CLI half of the durable-sweep
// acceptance: a `-wal` run journals the sweep; crashes are simulated by
// truncating the journal at several byte offsets; each `-resume` run must
// write aggregate tables byte-identical to the uninterrupted run. A
// journal from a build that ran another engine is refused.
func TestRunScenarioResumeSmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSmokeSpec(t, dir)

	runErr := func(label, wal string, resume bool) error {
		var out strings.Builder
		return runScenario(scenOpts(specPath, func(o *cliOptions) {
			o.workers = 2
			o.walPath = wal
			o.resume = resume
			o.csvDir = filepath.Join(dir, label)
		}), &out)
	}
	run := func(label, wal string, resume bool) map[string]string {
		t.Helper()
		if err := runErr(label, wal, resume); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		csvDir := filepath.Join(dir, label)
		tables := map[string]string{}
		for _, f := range []string{"comfort.csv", "heatmap.csv"} {
			tb, err := os.ReadFile(filepath.Join(csvDir, f))
			if err != nil {
				t.Fatalf("%s: aggregate %s not written: %v", label, f, err)
			}
			tables[f] = string(tb)
		}
		return tables
	}

	cleanWal := filepath.Join(dir, "clean.wal")
	clean := run("clean", cleanWal, false)
	walData, err := os.ReadFile(cleanWal)
	if err != nil {
		t.Fatal(err)
	}
	// First frame after the 8-byte header is the submission record:
	// [4B len][1B type][payload][4B crc].
	submitEnd := 8 + 4 + 1 + int(binary.LittleEndian.Uint32(walData[8:])) + 4
	cuts := []int{
		submitEnd + 10,                 // torn mid cell table: full re-run
		(submitEnd + len(walData)) / 2, // partial ledger survives
		len(walData) - 5,               // torn status: every cell ledgered
		len(walData),                   // complete journal: pure restore
	}
	for i, cut := range cuts {
		label := fmt.Sprintf("cut%d", i)
		walPath := filepath.Join(dir, label+".wal")
		if err := os.WriteFile(walPath, walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := run(label, walPath, true)
		for f, want := range clean {
			if got[f] != want {
				t.Fatalf("%s (cut %d/%d): aggregate %s diverged:\n%s\nvs\n%s",
					label, cut, len(walData), f, got[f], want)
			}
		}
	}

	// An existing journal without -resume is refused, not overwritten.
	var out strings.Builder
	err = runScenario(scenOpts(specPath, func(o *cliOptions) { o.workers = 1; o.walPath = cleanWal }), &out)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("overwrite refusal: err = %v", err)
	}

	// A journal from a build that ran the fixed-tick loop: its submission
	// record carries engine code 0, which the JSON omits. Rewrite the
	// record that way (length prefix and CRC32C included); -resume must
	// refuse it with the typed error instead of finishing it on another
	// engine.
	n := int(binary.LittleEndian.Uint32(walData[8:]))
	payload := walData[8+4+1 : 8+4+1+n]
	old := bytes.Replace(payload, []byte(`,"event":3`), nil, 1)
	if len(old) == len(payload) {
		t.Fatalf("submission record carries no engine code 3: %s", payload)
	}
	frame := binary.LittleEndian.AppendUint32(append([]byte(nil), walData[:8]...), uint32(len(old)))
	frame = append(append(frame, walData[8+4]), old...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[8+4:], crc32.MakeTable(crc32.Castagnoli)))
	oldWal := filepath.Join(dir, "code0.wal")
	if err := os.WriteFile(oldWal, append(frame, walData[submitEnd:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var em *durable.EventMismatchError
	if err := runErr("code0", oldWal, true); !errors.As(err, &em) || em.Journaled != 0 {
		t.Fatalf("resume of a code-0 journal: err = %v, want *durable.EventMismatchError{0}", err)
	}
}

// TestProfileFlagsSmoke exercises -cpuprofile/-memprofile end to end: both
// profiles must come out non-empty after a scenario run.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSmokeSpec(t, dir)
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runScenario(scenOpts(specPath, func(o *cliOptions) { o.workers = 1 }), &out); err != nil {
		stop()
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// Idempotent stop: a second call must not fail or rewrite anything.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}
