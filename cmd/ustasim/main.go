// Command ustasim regenerates the paper's evaluation artifacts from the
// simulation. Each experiment prints a table (or ASCII trace chart)
// matching one figure/table of the paper:
//
//	ustasim -experiment fig3                 # prediction-model error rates
//	ustasim -experiment fig4 -csv out/       # Skype traces + CSV dump
//	ustasim -experiment table1 -scale 0.5    # all 13 workloads, half length
//	ustasim -experiment all                  # everything, paper scale
//	ustasim -experiment table1 -workers 1    # serial run (same output)
//
// Beyond the published artifacts, -scenario runs a declarative sweep file
// (JSON or YAML; see examples/sweep) and prints its fleet analytics —
// per-user comfort distributions, ambient × limit violation heat maps and
// scheme-vs-scheme deltas:
//
//	ustasim -scenario examples/sweep/table1.json
//	ustasim -scenario sweep.yaml -jsonl samples.jsonl -csv out/
//
// The -scale flag shortens evaluation runs for quick looks; the training
// corpus always runs long enough to cover the hot regime (-corpus-sec).
// Experiments fan out on the fleet engine: -workers bounds the pool, and
// per-run seeds are position-derived, so the artifacts are identical at any
// worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "fig1|fig2|fig3|fig4|fig5|table1|replicate|all")
		scenPath   = flag.String("scenario", "", "declarative sweep file (JSON or YAML); overrides -experiment")
		jsonlPath  = flag.String("jsonl", "", "stream every scenario sample to this JSONL file, in completion order (byte-stable only at -workers 1)")
		scale      = flag.Float64("scale", 1.0, "evaluation run duration scale (0,1]")
		seed       = flag.Int64("seed", 42, "base seed for workload jitter and ML shuffling")
		corpusSec  = flag.Float64("corpus-sec", 0, "truncate each corpus run to this many seconds (0 = full)")
		mlpEpochs  = flag.Int("mlp-epochs", 0, "MLP training epochs for fig3 (0 = default 150)")
		csvDir     = flag.String("csv", "", "directory to write fig4 trace CSVs or scenario aggregate CSVs (empty = no dump)")
		repN       = flag.Int("n", 5, "replications for -experiment replicate")
		workers    = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS); results are identical at any width")
		hosts      = flag.String("hosts", "", "comma-separated ustaworker -listen daemon addresses to dispatch the scenario to; results are identical either way")
		fallbk     = flag.Bool("local-fallback", false, "with -hosts: when every worker stays down past the coordinator's recovery deadline, finish the remaining jobs in-process instead of failing them")
		statsJSON  = flag.String("stats-json", "", "with -hosts: write the sweep's RunStats (redials, items, breaker states) to this JSON file")
		walPath    = flag.String("wal", "", "journal the scenario sweep to this write-ahead log; a killed run can continue with -resume, re-running only unfinished cells")
		resume     = flag.Bool("resume", false, "continue the interrupted sweep journaled in -wal (aggregates byte-identical to an uninterrupted run)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	flag.Parse()

	if *hosts != "" && *scenPath == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -hosts requires -scenario")
		os.Exit(1)
	}
	if *fallbk && *hosts == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -local-fallback requires -hosts")
		os.Exit(1)
	}
	if *statsJSON != "" && *hosts == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -stats-json requires -hosts")
		os.Exit(1)
	}
	if *jsonlPath != "" && *scenPath == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -jsonl requires -scenario")
		os.Exit(1)
	}
	if *walPath != "" && *scenPath == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -wal requires -scenario")
		os.Exit(1)
	}
	if *resume && *walPath == "" {
		fmt.Fprintln(os.Stderr, "ustasim: -resume requires -wal")
		os.Exit(1)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustasim:", err)
		os.Exit(1)
	}
	opts := cliOptions{
		experiment: *exp, scenPath: *scenPath, jsonlPath: *jsonlPath,
		scale: *scale, seed: *seed, corpusSec: *corpusSec,
		mlpEpochs: *mlpEpochs, csvDir: *csvDir, repN: *repN,
		workers: *workers, hosts: *hosts,
		localFallback: *fallbk, statsPath: *statsJSON,
		walPath: *walPath, resume: *resume,
	}
	if err := realMain(opts); err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "ustasim:", err)
		os.Exit(1)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "ustasim:", err)
		os.Exit(1)
	}
}

// startProfiles starts the optional CPU profile and returns a closer that
// stops it and snapshots the heap profile. Profiling the whole command —
// experiments or scenario sweeps alike — is what lets perf work measure
// real sweeps without ad-hoc patches.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize retained-heap accounting
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write heap profile: %w", err)
			}
			memPath = ""
		}
		return nil
	}, nil
}

// cliOptions carries the parsed flag values into realMain by value, so
// the body reads plain fields instead of flag pointers.
type cliOptions struct {
	experiment    string
	scenPath      string
	jsonlPath     string
	scale         float64
	seed          int64
	corpusSec     float64
	mlpEpochs     int
	csvDir        string
	repN          int
	workers       int
	hosts         string
	localFallback bool
	statsPath     string
	walPath       string
	resume        bool
}

func realMain(o cliOptions) error {
	if o.scenPath != "" {
		// A scenario file carries its own scale, seeds and corpus policy;
		// silently ignoring the experiment flags would make the user
		// believe they applied.
		var flagErr error
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "experiment", "scale", "seed", "corpus-sec", "mlp-epochs", "n":
				if flagErr == nil {
					flagErr = fmt.Errorf("-%s is not supported with -scenario (set it in the spec)", f.Name)
				}
			}
		})
		if flagErr != nil {
			return flagErr
		}
		return runScenario(o, os.Stdout)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = o.scale
	cfg.Seed = o.seed
	cfg.CorpusPerRunSec = o.corpusSec
	cfg.MLPEpochs = o.mlpEpochs
	cfg.Workers = o.workers
	pl := experiments.NewPipeline(cfg)

	run := func(name string) error {
		switch name {
		case "fig1":
			fmt.Println(experiments.RunFig1(pl))
		case "fig2":
			fmt.Println(experiments.RunFig2(pl))
		case "fig3":
			fmt.Println(experiments.RunFig3(pl))
		case "fig4":
			res := experiments.RunFig4(pl)
			fmt.Println(res)
			if o.csvDir != "" {
				if err := dumpFig4(res, o.csvDir); err != nil {
					return err
				}
				fmt.Printf("traces written to %s\n", o.csvDir)
			}
		case "fig5":
			fmt.Println(experiments.RunFig5(pl))
		case "table1":
			fmt.Println(experiments.RunTable1(pl))
		case "replicate":
			fmt.Println(experiments.ReplicateFig4(pl, o.repN))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	var names []string
	if o.experiment == "all" {
		names = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1"}
	} else {
		names = []string{o.experiment}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			return err
		}
	}
	return nil
}

func dumpFig4(res *experiments.Fig4Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base, err := os.Create(filepath.Join(dir, "fig4_baseline.csv"))
	if err != nil {
		return err
	}
	defer base.Close()
	if err := res.Baseline.Trace.WriteCSV(base); err != nil {
		return err
	}
	usta, err := os.Create(filepath.Join(dir, "fig4_usta.csv"))
	if err != nil {
		return err
	}
	defer usta.Close()
	return res.USTA.Trace.WriteCSV(usta)
}
