// Command benchdiff compares two `go test -bench` outputs — a committed
// baseline (BENCH_seed.json) and a fresh run (BENCH_pr.json) — and reports
// throughput regressions. CI runs it warn-only so noisy runners never
// block a merge, but the 950 jobs/s fleet-engine gain of the perf PRs
// cannot regress silently:
//
//	benchdiff BENCH_seed.json BENCH_pr.json
//	benchdiff -threshold 0.3 -strict old.txt new.txt   # exit 1 on regression
//	benchdiff -fail-on-regress 15 -match BenchmarkFleetRun old.txt new.txt
//
// -fail-on-regress puts a hard gate behind the warn-only default: any
// benchmark whose name contains -match (empty: all) and regresses more
// than the given percentage fails the run with exit 1, independent of
// -strict. So does a gated baseline benchmark the fresh run lacks: a
// renamed or deleted leg must leave the baseline explicitly, not fall out
// of the gate. CI uses it to gate fleet-engine throughput while the rest
// of the suite stays warn-only.
//
// Only time (ns/op) and rate (.../sec, .../s) metrics are compared; domain
// metrics (peak-C, error rates) are anchored by tests, not by the diff.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics maps "benchmark name" → "unit" → value.
type metrics map[string]map[string]float64

func main() {
	threshold := flag.Float64("threshold", 0.25, "relative regression that triggers a warning (0.25 = 25%)")
	strict := flag.Bool("strict", false, "exit non-zero when a regression exceeds the threshold")
	failPct := flag.Float64("fail-on-regress", 0, "hard gate in percent: exit 1 when a benchmark matching -match regresses more than this (0 = warn-only)")
	match := flag.String("match", "", "comma-separated substrings restricting which benchmarks -fail-on-regress gates (empty = all)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold f] [-strict] [-fail-on-regress pct [-match substr]] SEED PR")
		os.Exit(2)
	}
	if *failPct < 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -fail-on-regress must be >= 0")
		os.Exit(2)
	}
	seed, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	pr, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	gate := gateSpec{pct: *failPct, match: *match}
	regressions, gated := compare(seed, pr, *threshold, gate, os.Stdout)
	if gated > 0 {
		fmt.Printf("%d benchmark metric(s) matching %q regressed more than %.0f%% or are missing from this run: failing the build\n", gated, *match, *failPct)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Printf("%d benchmark metric(s) regressed more than %.0f%% vs the committed baseline\n", regressions, *threshold*100)
		if *strict {
			os.Exit(1)
		}
		fmt.Println("(warn-only: not failing the build)")
	} else {
		fmt.Println("no benchmark regressions beyond the threshold")
	}
}

// gateSpec is the -fail-on-regress hard gate: pct is the failure threshold
// in percent (0 disables), match a comma-separated list of benchmark-name
// substrings it covers (any one matching is enough).
type gateSpec struct {
	pct   float64
	match string
}

// gates reports whether the gate is on and covers the named benchmark.
func (g gateSpec) gates(name string) bool {
	if g.pct <= 0 {
		return false
	}
	if g.match == "" {
		return true
	}
	for _, sub := range strings.Split(g.match, ",") {
		if sub != "" && strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

// covers reports whether a regression of rel (negative for rate drops) on
// the named benchmark trips the gate.
func (g gateSpec) covers(name string, rel float64, lowerBetter bool) bool {
	lim := g.pct / 100
	return g.gates(name) && ((lowerBetter && rel > lim) || (!lowerBetter && rel < -lim))
}

// parseFile reads one `go test -bench` output file into metrics.
func parseFile(path string) (metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := metrics{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, units := parseLine(sc.Text())
		if name == "" {
			continue
		}
		if m[name] == nil {
			m[name] = map[string]float64{}
		}
		for u, v := range units {
			m[name][u] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return m, nil
}

// parseLine decodes one "BenchmarkX-8  N  1234 ns/op  56 jobs/sec" line.
// Names are kept verbatim; GOMAXPROCS-suffix differences are resolved at
// match time (a sub-benchmark like workers-4 is syntactically identical to
// a -GOMAXPROCS suffix, so stripping eagerly would collapse distinct
// benchmarks).
func parseLine(line string) (string, map[string]float64) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil
	}
	name := fields[0]
	units := map[string]float64{}
	// fields[1] is the iteration count; value/unit pairs follow.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		units[fields[i+1]] = v
	}
	if len(units) == 0 {
		return "", nil
	}
	return name, units
}

// stripCount removes a trailing -N (the shape of a -GOMAXPROCS suffix).
func stripCount(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// matchNames pairs seed benchmark names with PR names: exact matches
// first, then — for leftovers — unique matches modulo a trailing
// -GOMAXPROCS-shaped suffix, so baselines recorded on hosts with a
// different core count still line up.
func matchNames(seed, pr metrics) map[string]string {
	pairs := map[string]string{}
	usedPR := map[string]bool{}
	for name := range seed {
		if pr[name] != nil {
			pairs[name] = name
			usedPR[name] = true
		}
	}
	// Stripped forms of the unmatched PR names; nil marks ambiguity.
	stripped := map[string]*string{}
	for name := range pr {
		if usedPR[name] {
			continue
		}
		key := stripCount(name)
		if _, dup := stripped[key]; dup {
			stripped[key] = nil
		} else {
			n := name
			stripped[key] = &n
		}
	}
	for name := range seed {
		if pairs[name] != "" {
			continue
		}
		// PR side carries the suffix (baseline from a 1-core host)...
		if prName := stripped[name]; prName != nil && !usedPR[*prName] {
			pairs[name] = *prName
			usedPR[*prName] = true
			continue
		}
		s := stripCount(name)
		// ...or the seed side does (baseline from a multicore host)...
		if s != name && pr[s] != nil && !usedPR[s] {
			pairs[name] = s
			usedPR[s] = true
			continue
		}
		// ...or both do, with different core counts.
		if prName := stripped[s]; s != name && prName != nil && !usedPR[*prName] {
			pairs[name] = *prName
			usedPR[*prName] = true
		}
	}
	return pairs
}

// compare prints per-metric deltas for metrics present in both runs and
// returns the number of regressions beyond the warn threshold plus the
// number tripping the hard gate. Lower-is-better units: ns/op;
// higher-is-better: anything per second. PR benchmarks with no baseline
// counterpart — the benches a perf PR introduces — are listed as "new"
// informational lines rather than silently skipped, so they are visible in
// CI diffs from the run that adds them. Baseline benchmarks with no PR
// counterpart are listed as missing, and each one the gate covers counts
// as gated.
func compare(seed, pr metrics, threshold float64, gate gateSpec, out io.Writer) (regressions, gated int) {
	pairs := matchNames(seed, pr)
	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	w := bufio.NewWriter(out)
	defer w.Flush()
	if len(names) == 0 {
		fmt.Fprintln(w, "no common benchmarks between the two files")
	}
	for _, name := range names {
		prUnits := pr[pairs[name]]
		for _, unit := range sortedUnits(seed[name]) {
			s := seed[name][unit]
			p, ok := prUnits[unit]
			if !ok || s == 0 {
				continue
			}
			lowerBetter, rate := unitDirection(unit)
			if !lowerBetter && !rate {
				continue // domain metric: not a perf signal
			}
			rel := (p - s) / s
			bad := (lowerBetter && rel > threshold) || (rate && rel < -threshold)
			mark := "  "
			if bad {
				mark = "✗ "
				regressions++
			}
			if gate.covers(name, rel, lowerBetter) {
				mark = "✗!"
				gated++
			}
			fmt.Fprintf(w, "%s%-50s %14s %14.4g → %-14.4g (%+.1f%%)\n", mark, name, unit, s, p, rel*100)
		}
	}
	var missing []string
	for name := range seed {
		if pairs[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		mark := "- "
		if gate.gates(name) {
			mark = "✗!"
			gated++
		}
		fmt.Fprintf(w, "%s%-50s missing from this run\n", mark, name)
	}
	matchedPR := map[string]bool{}
	for _, prName := range pairs {
		matchedPR[prName] = true
	}
	var fresh []string
	for name := range pr {
		if !matchedPR[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		for _, unit := range sortedUnits(pr[name]) {
			lowerBetter, rate := unitDirection(unit)
			if !lowerBetter && !rate {
				continue
			}
			fmt.Fprintf(w, "+ %-50s %14s %14s → %-14.4g (new, no baseline)\n", name, unit, "—", pr[name][unit])
		}
	}
	return regressions, gated
}

// unitDirection classifies a benchmark unit.
func unitDirection(unit string) (lowerBetter, rate bool) {
	switch {
	case unit == "ns/op" || unit == "B/op" || unit == "allocs/op":
		return true, false
	case strings.HasSuffix(unit, "/sec") || strings.HasSuffix(unit, "/s"):
		return false, true
	default:
		return false, false
	}
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
