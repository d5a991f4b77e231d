package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
	fleetnet "repro/internal/fleet/net"
)

// runScenario executes a declarative sweep file and prints its fleet
// analytics: per-user comfort distributions always, a violation heat map
// when the grid has more than one (ambient, limit) cell, and
// scheme-vs-scheme deltas when the scheme axis has at least two entries.
// An optional JSONL path streams every telemetry sample; an optional CSV
// directory receives the aggregate tables. shards != 0 fans the grid out
// across worker subprocesses, a non-empty hosts list dispatches shards to
// long-lived `ustaworker -listen` daemons over TCP (overriding shards) —
// one coordinator either way, and aggregates and streams are identical
// under every choice. localFallback lets such a run finish on the
// in-process pool when every worker stays down past the coordinator's
// recovery deadline. walPath journals the sweep to a write-ahead log and
// resume continues one that was killed partway, re-running only
// unfinished cells — outputs stay byte-identical to an uninterrupted run.
// Coordinator recovery logs and the end-of-run stats snapshot go to
// stderr so stdout stays byte-comparable across runner choices; statsPath
// additionally dumps that end-of-run RunnerStats snapshot as JSON for
// tooling.
func runScenario(o cliOptions, out io.Writer) error {
	spec, err := repro.LoadScenario(o.scenPath)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, spec)

	opts := []repro.ScenarioOption{
		repro.ScenarioWorkers(o.workers),
		repro.ScenarioProgress(func(done, total int) {
			if done == total || done%50 == 0 {
				fmt.Fprintf(out, "\r%d/%d jobs", done, total)
				if done == total {
					fmt.Fprintln(out)
				}
			}
		}),
	}
	var nr *fleetnet.Runner
	switch {
	case o.hosts != "":
		hs := strings.Split(o.hosts, ",")
		for i := range hs {
			hs[i] = strings.TrimSpace(hs[i])
		}
		nr = repro.NewNetRunner(hs)
	case o.shards != 0:
		nr = repro.NewShardRunner(o.shards)
	}
	var writeStats func() error
	if nr != nil {
		nr.FallbackLocal = o.localFallback
		nr.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ustasim: "+format+"\n", args...)
		}
		opts = append(opts, repro.ScenarioRunner(nr))
		if o.statsPath != "" {
			writeStats = func() error {
				data, err := json.MarshalIndent(nr.Stats(), "", "  ")
				if err != nil {
					return err
				}
				return os.WriteFile(o.statsPath, append(data, '\n'), 0o644)
			}
		}
	}
	if o.walPath != "" {
		opts = append(opts, repro.ScenarioWAL(o.walPath))
		if o.resume {
			opts = append(opts, repro.ScenarioResume())
		}
	}
	var jsonlFile *os.File
	var jsonlSink repro.Sink
	if o.jsonlPath != "" {
		jsonlFile, err = os.Create(o.jsonlPath)
		if err != nil {
			return err
		}
		// Closed explicitly after the run so latched write errors (disk
		// full, closed pipe) fail the command instead of truncating the
		// stream silently; the defer only covers early-error returns.
		defer func() {
			if jsonlFile != nil {
				jsonlFile.Close()
			}
		}()
		jsonlSink = repro.NewJSONLSink(jsonlFile)
		opts = append(opts, repro.ScenarioSink(jsonlSink))
	}

	res, err := repro.RunScenario(context.Background(), spec, opts...)
	if err != nil {
		return err
	}
	if writeStats != nil {
		// Written before the first-error check: the recovery counters are
		// most interesting precisely when some jobs failed.
		if err := writeStats(); err != nil {
			return fmt.Errorf("stats snapshot %s: %w", o.statsPath, err)
		}
	}
	if jsonlSink != nil {
		if err := jsonlSink.Close(); err != nil {
			return fmt.Errorf("jsonl stream %s: %w", o.jsonlPath, err)
		}
		f := jsonlFile
		jsonlFile = nil
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := res.FirstError(); err != nil {
		return err
	}

	comfort := res.ComfortByUser()
	fmt.Fprintln(out, "\nPer-user comfort:")
	fmt.Fprintln(out, repro.ComfortMarkdown(comfort))

	heat := res.ViolationHeatMap()
	showHeat := len(heat.Rows)*len(heat.Cols) > 1
	if showHeat {
		fmt.Fprintf(out, "Violation heat map (mean %s, %s rows × %s cols):\n", heat.ValueLabel, heat.RowLabel, heat.ColLabel)
		fmt.Fprintln(out, heat.Markdown())
	}

	var deltas []repro.SchemeDelta
	if s := spec.Schemes; len(s) >= 2 {
		base, alt := s[0].Label(), s[1].Label()
		deltas, err = res.CompareSchemes(base, alt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, repro.DeltasMarkdown(deltas, base, alt))
	}

	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(o.csvDir, "comfort.csv"), func(w io.Writer) error {
			return repro.WriteComfortCSV(w, comfort)
		}); err != nil {
			return err
		}
		if showHeat {
			if err := writeCSV(filepath.Join(o.csvDir, "heatmap.csv"), heat.WriteCSV); err != nil {
				return err
			}
		}
		if deltas != nil {
			if err := writeCSV(filepath.Join(o.csvDir, "deltas.csv"), func(w io.Writer) error {
				return repro.WriteDeltasCSV(w, deltas)
			}); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "aggregates written to %s\n", o.csvDir)
	}
	return nil
}

// writeCSV writes one aggregate table to a file.
func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
