// Command ustatrace runs one workload under a chosen governor (optionally
// wrapped by USTA) and writes the full temperature/frequency trace as CSV —
// the raw material for custom plots. Built on the Session API: construction
// errors are reported instead of panicking, and ^C stops the simulation at
// the next step while still flushing the partial trace.
//
//	ustatrace -workload skype -out skype.csv
//	ustatrace -workload game -governor performance -dur 600
//	ustatrace -workload antutu-tester -usta 37 -out tester_usta.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro"
	"repro/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "skype", "one of the 13 paper workloads")
		gov     = flag.String("governor", "ondemand", "ondemand|interactive|conservative|schedutil|performance|powersave")
		dur     = flag.Float64("dur", 0, "run duration in seconds (0 = workload length)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		out     = flag.String("out", "", "CSV output path (empty = stdout)")
		ustaLim = flag.Float64("usta", 0, "attach USTA with this skin limit in °C (0 = off)")
		ambient = flag.Float64("ambient", 25, "ambient temperature in °C")
	)
	flag.Parse()

	w := repro.WorkloadByName(*name, uint64(*seed))
	if w == nil {
		fmt.Fprintf(os.Stderr, "ustatrace: unknown workload %q (choose from %v)\n", *name, repro.BenchmarkNames())
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := repro.DefaultDeviceConfig()
	opts := []repro.SessionOption{
		repro.WithDevice(cfg),
		repro.WithGovernorName(*gov),
		repro.WithSeed(*seed),
		repro.WithAmbientC(*ambient),
	}
	if *ustaLim > 0 {
		fmt.Fprintln(os.Stderr, "ustatrace: training predictor for USTA...")
		trainCfg := cfg
		trainCfg.Seed = *seed
		trainCfg.Thermal.Ambient = *ambient // train in the conditions being traced
		corpus, err := repro.CollectCorpusContext(ctx, trainCfg, []repro.Workload{
			workload.Skype(uint64(*seed) + 100),
			workload.AnTuTuTester(uint64(*seed) + 101),
			workload.StaircaseRamp(uint64(*seed)+102, 0.05, 0.95, 8, 60),
			workload.Idle(300),
		}, 0, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ustatrace:", err)
			os.Exit(1)
		}
		pred, err := repro.TrainPredictor(corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ustatrace:", err)
			os.Exit(1)
		}
		opts = append(opts, repro.WithController(repro.NewUSTA(pred, *ustaLim)))
	}

	session, err := repro.NewSession(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustatrace:", err)
		os.Exit(1)
	}

	res, err := session.RunFor(ctx, w, *dur)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ustatrace:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustatrace: interrupted at t=%.0f s; writing partial trace\n", res.DurSec)
	}
	fmt.Fprintf(os.Stderr, "%s under %s%s: peak skin %.1f °C, peak screen %.1f °C, avg %.2f GHz, energy %.0f J, battery %.0f%%→%.0f%%\n",
		res.Workload, res.Governor, ctrlSuffix(res.Ctrl),
		res.MaxSkinC, res.MaxScreenC, res.AvgFreqMHz/1000, res.EnergyJ,
		res.StartSoC*100, res.EndSoC*100)

	if *out == "" {
		err = res.Trace.WriteCSV(os.Stdout)
	} else {
		err = writeFile(*out, res.Trace.WriteCSV)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustatrace:", err)
		os.Exit(1)
	}
}

// writeFile creates path and fills it with write. A failed Close fails the
// write too: it can be the flush that lost the data.
func writeFile(path string, write func(io.Writer) error) error {
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

func ctrlSuffix(ctrl string) string {
	if ctrl == "" {
		return ""
	}
	return " + " + ctrl
}
