// Command ustatrain runs the paper's training pipeline end to end: collect
// the logging corpus from the evaluation workloads, cross-validate the
// chosen algorithm, fit the final predictor and, for REPTree, save it as
// JSON (plus, optionally, the corpus as WEKA-compatible ARFF).
//
// Only REPTree predictors are saved: the paper deploys REPTree alone, and
// a predictor document holds nothing else. The other models are for the
// offline comparison (Fig. 3): with them ustatrain writes no predictor,
// and an explicit -out is refused before the corpus is collected.
//
//	ustatrain -model reptree -out predictor.json
//	ustatrain -model m5p -arff corpus_skin.arff
//	ustatrain -per-run 1200   # quick corpus for smoke tests
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
	"repro/internal/workload"
)

func main() {
	var (
		model   = flag.String("model", "reptree", "reptree|m5p|linreg|mlp")
		out     = flag.String("out", "predictor.json", "REPTree predictor output path (empty = skip; other models save none)")
		arff    = flag.String("arff", "", "also dump the skin-target corpus as ARFF to this path")
		seed    = flag.Int64("seed", 42, "pipeline seed")
		perRun  = flag.Float64("per-run", 0, "truncate each corpus run to this many seconds (0 = full)")
		folds   = flag.Int("folds", 10, "cross-validation folds")
		workers = flag.Int("workers", 0, "corpus-collection worker pool width (0 = GOMAXPROCS)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var factory func() ml.Regressor
	switch *model {
	case "reptree":
		factory = func() ml.Regressor { return tree.New(*seed) }
	case "m5p":
		factory = func() ml.Regressor { return m5p.New() }
	case "linreg":
		factory = func() ml.Regressor { return linreg.New() }
	case "mlp":
		factory = func() ml.Regressor {
			m := mlp.New(*seed)
			m.Epochs = 150
			return m
		}
	default:
		fmt.Fprintf(os.Stderr, "ustatrain: unknown model %q\n", *model)
		os.Exit(1)
	}
	if *model != "reptree" {
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if outSet && *out != "" {
			fmt.Fprintf(os.Stderr, "ustatrain: -out saves REPTree predictors only; -model %s trains for comparison, so drop -out\n", *model)
			os.Exit(1)
		}
		*out = ""
	}

	cfg := device.DefaultConfig()
	cfg.Seed = *seed
	fmt.Fprintln(os.Stderr, "ustatrain: collecting corpus from the 13 evaluation workloads...")
	loads := make([]workload.Workload, 0, 13)
	for _, w := range workload.Benchmarks(uint64(*seed)) {
		loads = append(loads, w)
	}
	corpus, err := core.CollectCorpusContext(ctx, cfg, loads, *perRun, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustatrain:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ustatrain: %d records\n", len(corpus))

	for _, target := range []core.Target{core.SkinTarget, core.ScreenTarget} {
		ds := core.DatasetFromRecords(corpus, target)
		exp, pred, err := ml.CrossValidate(factory, ds, *folds, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ustatrain:", err)
			os.Exit(1)
		}
		fmt.Printf("%-6s %d-fold CV: error rate %.2f%%  (gated ≥1°C: %.2f%%)  MAE %.3f °C  RMSE %.3f °C\n",
			target, *folds,
			ml.ErrorRate(exp, pred), ml.GatedErrorRate(exp, pred, 1.0),
			ml.MAE(exp, pred), ml.RMSE(exp, pred))
	}

	predictor, err := core.Train(corpus, factory)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustatrain:", err)
		os.Exit(1)
	}

	// Which observables carry the signal? (Battery temperature dominates:
	// the pack sits directly under the cover midsection.)
	skinDS := core.DatasetFromRecords(corpus, core.SkinTarget)
	if imp, err := ml.PermutationImportance(predictor.SkinModel, skinDS, *seed); err == nil {
		fmt.Println("skin-model permutation importance (MAE increase when shuffled):")
		for _, im := range imp {
			fmt.Printf("  %-16s +%.3f °C\n", im.Attr, im.Increase)
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(w io.Writer) error { return core.SavePredictor(w, predictor) }); err != nil {
			fmt.Fprintln(os.Stderr, "ustatrain:", err)
			os.Exit(1)
		}
		fmt.Printf("predictor saved to %s\n", *out)
	}
	if *arff != "" {
		if err := writeFile(*arff, func(w io.Writer) error { return ml.WriteARFF(w, "usta-skin", skinDS) }); err != nil {
			fmt.Fprintln(os.Stderr, "ustatrain:", err)
			os.Exit(1)
		}
		fmt.Printf("skin corpus saved to %s\n", *arff)
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
