// Package core implements the paper's contribution: the run-time skin and
// screen temperature predictor learned from on-device observables, and the
// User-specific Skin Temperature-Aware (USTA) DVFS controller that uses it
// to keep the device below a per-user comfort limit.
//
// The division of labour mirrors the paper exactly:
//
//   - Training time: run workloads under the stock governor on a phone
//     instrumented with thermistors, log {CPU temp, battery temp, CPU
//     utilization, CPU frequency} plus the thermistor ground truth
//     (CollectCorpus), and fit a regressor per target (Train).
//   - Run time: every 3 seconds, assemble the same feature tuple from the
//     logging app, predict the skin temperature, and clamp the maximum CPU
//     frequency by how close the prediction is to the user's limit (USTA).
package core

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/sensors"
	"repro/internal/workload"
)

// Target selects which thermistor the model predicts.
type Target int

// Prediction targets.
const (
	SkinTarget Target = iota
	ScreenTarget
)

// String returns the target name.
func (t Target) String() string {
	if t == ScreenTarget {
		return "screen"
	}
	return "skin"
}

// DatasetFromRecords converts logger records into an ml.Dataset with the
// paper's canonical feature order and the chosen thermistor as the label.
func DatasetFromRecords(recs []sensors.Record, target Target) *ml.Dataset {
	d := ml.NewDataset(sensors.FeatureNames...)
	for _, r := range recs {
		y := r.SkinTempC
		if target == ScreenTarget {
			y = r.ScreenTempC
		}
		d.Add(r.Features(), y)
	}
	return d
}

// CollectCorpusContext runs each workload on a fresh phone under the stock
// ondemand governor and returns the concatenated training log. maxPerRun
// truncates each workload (<= 0 runs them in full); tests use short
// truncations, the paper-scale experiments run everything. Runs fan out
// across a bounded worker pool (workers <= 0: GOMAXPROCS) and honor ctx.
// They are independent — one fresh phone per workload, seeds derived from
// the workload index — so the concatenated log is identical at any worker
// count: per-workload logs are collected in parallel but stitched together
// in input order.
func CollectCorpusContext(ctx context.Context, cfg device.Config, loads []workload.Workload, maxPerRun float64, workers int) ([]sensors.Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	per := make([][]sensors.Record, len(loads))
	errs := make([]error, len(loads))
	fleet.ForEach(len(loads), workers, func(i int) {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(i+1)*1000
		p, err := device.New(runCfg, nil) // nil governor defaults to ondemand
		if err != nil {
			errs[i] = err
			return
		}
		res, err := p.RunContext(ctx, loads[i], maxPerRun)
		if err != nil {
			errs[i] = err
			return
		}
		per[i] = res.Records
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: corpus run %d (%s): %w", i, loads[i].Name(), err)
		}
	}
	var corpus []sensors.Record
	for _, recs := range per {
		corpus = append(corpus, recs...)
	}
	return corpus, nil
}

// Predictor predicts skin and screen temperatures from a logger record.
type Predictor struct {
	// SkinModel and ScreenModel are trained regressors over the canonical
	// feature tuple.
	SkinModel   ml.Regressor
	ScreenModel ml.Regressor
}

// Train fits a predictor on the corpus using the given model factory (one
// fresh model per target). Passing nil uses REPTree — the paper's choice
// for the run-time implementation ("REPtree builds faster than M5P and
// does not cause halting").
func Train(corpus []sensors.Record, factory func() ml.Regressor) (*Predictor, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("core: empty training corpus")
	}
	if factory == nil {
		factory = func() ml.Regressor { return tree.New(1) }
	}
	skin := factory()
	if err := skin.Fit(DatasetFromRecords(corpus, SkinTarget)); err != nil {
		return nil, fmt.Errorf("core: training skin model: %w", err)
	}
	screen := factory()
	if err := screen.Fit(DatasetFromRecords(corpus, ScreenTarget)); err != nil {
		return nil, fmt.Errorf("core: training screen model: %w", err)
	}
	return &Predictor{SkinModel: skin, ScreenModel: screen}, nil
}

// PredictSkin returns the predicted back-cover temperature for a record.
func (p *Predictor) PredictSkin(r sensors.Record) float64 {
	return p.SkinModel.Predict(r.Features())
}

// PredictScreen returns the predicted screen temperature for a record.
func (p *Predictor) PredictScreen(r sensors.Record) float64 {
	return p.ScreenModel.Predict(r.Features())
}
