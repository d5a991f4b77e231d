// Command ustabench is the repository's end-to-end benchmark. It runs four
// workloads — a population sweep in-process, the same sweep through the
// fleet service, small interactive submissions, and the paper's Table 1
// with its telemetry streamed — and prints, per workload, the end-to-end
// metrics (set-up time, throughput, CPU per cell, peak memory, latency),
// after checking every output against committed goldens or a reference
// run. Timings are divided by the machine's slowdown, measured while they
// run (speed.go). With --trace 1 a separate traced pass adds per-layer
// metrics.
//
//	bash bench/run.sh --seed 1                      # all four workloads
//	bash bench/run.sh --workload sweep-local --seed 3 --seconds 20 --trace 0
//
// Without --workload each workload runs in its own child process, so peak
// memory and process-wide caches do not leak between workloads. The last
// line of standard output is a JSON result; the exit code is 0 only when
// every check passed. See bench/README.md for the metrics and workloads.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs is the CPU budget of every workload: client, coordinator and
// workers share two cores.
const procs = 2

// runDeadline keeps a run inside the three minutes a benchmark run may take.
const runDeadline = 170 * time.Second

type options struct {
	workload    string
	seed        int
	seconds     float64
	trace       bool
	spans       string
	dir         string
	work        string
	smoke       bool
	writeGolden bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("ustabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload to run (empty: all, each in a child process)")
	fs.IntVar(&opt.seed, "seed", 1, "input seed (>= 1); offsets every spec's seeds.base and seeds.workload by seed-1")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured time per workload; reps start until it has elapsed")
	trace := fs.Int("trace", 0, "1: add a traced pass and print per-layer metrics")
	fs.StringVar(&opt.spans, "spans", "", "with --trace 1: write the traced pass's spans to this JSON file")
	fs.StringVar(&opt.dir, "dir", "bench", "benchmark directory holding workloads/ and golden/")
	fs.StringVar(&opt.work, "work", ".bench_build", "working directory for the services' state dirs")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny grids (<= 16 cells), one set-up, at least two reps")
	fs.BoolVar(&opt.writeGolden, "write-golden", false, "rewrite golden/<workload>.json from a reference run (seed 1 only)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	opt.trace = *trace == 1
	switch {
	case fs.NArg() > 0:
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case opt.seed < 1:
		return opt, fmt.Errorf("--seed must be >= 1, got %d", opt.seed)
	case opt.seconds < 0:
		return opt, fmt.Errorf("--seconds must be >= 0, got %g", opt.seconds)
	case opt.writeGolden && (opt.seed != 1 || opt.smoke):
		return opt, errors.New("--write-golden needs --seed 1 without --smoke")
	}
	return opt, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if opt.workload == "" {
		return runAll(args, opt.spans, stdout, stderr)
	}
	w, ok := workloadByName(opt.workload)
	if !ok {
		fmt.Fprintf(stderr, "ustabench: unknown workload %q\n", opt.workload)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "ustabench: %s: %v\n", w.name, err)
		return 1
	}
	for _, c := range res.checks {
		if c.err != nil {
			fmt.Fprintf(stderr, "ustabench: %s: check %s failed: %v\n", w.name, c.name, c.err)
		}
	}
	if err := res.print(stdout, opt.trace); err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childEnv marks a re-executed child (set to 1), so a test binary standing
// in for the harness knows to run it instead of its tests.
const childEnv = "USTABENCH_CHILD"

// runAll runs every workload in its own child process (a re-exec of this
// binary with --workload), passes their metric lines through, and ends
// with a combined JSON result keyed workload/metric. Each child writes its
// spans next to the requested file, suffixed with its workload.
func runAll(args []string, spans string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 1
	}
	total := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		childArgs := append(append([]string(nil), args...), "--workload", w.name)
		if spans != "" {
			ext := filepath.Ext(spans)
			childArgs = append(childArgs, "--spans", strings.TrimSuffix(spans, ext)+"-"+w.name+ext)
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout = &out
		cmd.Stderr = stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		last := lines[len(lines)-1]
		var res jsonResult
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "ustabench: %s: no result (%v)\n", w.name, runErr)
			total.Correct = false
			code = 1
			continue
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		if runErr != nil {
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// result is one workload's metrics and checks.
type result struct {
	workload  string
	values    map[string]float64
	samples   map[string]int // sample count behind a timing
	checks    []check
	attempted int
	failed    int
}

type check struct {
	name string
	err  error
}

func newResult(name string) *result {
	return &result{workload: name, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) check(name string, err error) {
	r.checks = append(r.checks, check{name, err})
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return r.failed == 0
}

// print writes one `<workload> <metric> <value> <unit>` line per metric
// (timings add their sample count), then the JSON result: the gated
// end-to-end metrics, or with trace the per-layer ones.
func (r *result) print(w io.Writer, trace bool) error {
	bw := bufio.NewWriter(w)
	line := func(m metricDef) {
		v, ok := r.values[m.name]
		if !ok {
			return
		}
		fmt.Fprintf(bw, "%s %s %v %s", r.workload, m.name, v, m.unit)
		if n, ok := r.samples[m.name]; ok {
			fmt.Fprintf(bw, " n=%d", n)
		}
		fmt.Fprintln(bw)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range endToEnd {
		if _, ok := r.values[m.name]; !ok {
			return fmt.Errorf("%s: metric %s not measured", r.workload, m.name)
		}
		line(m)
		if !trace {
			out.Metrics[m.name] = jsonMetric{r.values[m.name], m.unit}
		}
	}
	for _, m := range reported {
		line(m)
	}
	if trace {
		for _, l := range perLayer {
			if _, ok := r.values[l.name]; !ok {
				r.values[l.name] = 0 // the layer is not on this workload's path
			}
			line(l.metricDef)
			out.Metrics[l.name] = jsonMetric{r.values[l.name], l.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", data)
	return bw.Flush()
}
