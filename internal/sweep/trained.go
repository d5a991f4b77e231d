package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/workload"
)

// trainedMax bounds the memo of self-trained predictors. A process sweeps
// a handful of corpus settings at a time; each entry is a
// fitted REPTree pair plus, once a remote runner asked, its encoding.
const trainedMax = 4

// trained is one memoized self-training: the predictor, shared read-only
// by every sweep with the same training input, and its wire encoding with
// the encoding's content address, built on first demand so in-process
// sweeps never encode and no run, hello or request ever rehashes it.
type trained struct {
	key  trainingKey
	pred *core.Predictor

	once sync.Once
	enc  *fleet.EncodedPredictor
	err  error
}

// encoded returns the predictor's wire encoding, encoding it once.
func (t *trained) encoded() (*fleet.EncodedPredictor, error) {
	t.once.Do(func() { t.enc, t.err = wire.EncodePredictor(t.pred) })
	return t.enc, t.err
}

// memo is the process-wide store of self-trained predictors, oldest
// first. Training is deterministic in its inputs (bit-identical at any
// worker count), so a hit returns exactly what a retrain would. Two
// concurrent misses on one key may both train; they produce the same
// predictor and the memo keeps one.
var memo struct {
	sync.Mutex
	entries []*trained
}

// Process-wide counters behind PredictorCounts.
var trainCount, hitCount atomic.Int64

// PredictorCounts reports how many predictors this process has
// self-trained and how many sweeps reused a memoized one instead.
func PredictorCounts() (trainings, hits int64) {
	return trainCount.Load(), hitCount.Load()
}

// trainingKey identifies a self-training's inputs on the default device:
// the resolved corpus seed and the per-run truncation. A NaN truncation
// equals no key, so such an input never hits the memo.
type trainingKey struct {
	corpusSeed uint64
	perRunSec  float64
}

// selfTrained returns the predictor the experiment pipeline trains for
// these inputs — the thirteen benchmarks on the default device, REPTree
// on the log — from the memo when an earlier sweep trained it. Failed or
// cancelled trainings are never stored.
func selfTrained(ctx context.Context, corpusSeed uint64, perRunSec float64, workers int) (*trained, error) {
	key := trainingKey{corpusSeed, perRunSec}
	memo.Lock()
	for _, t := range memo.entries {
		if t.key == key {
			memo.Unlock()
			hitCount.Add(1)
			return t, nil
		}
	}
	memo.Unlock()
	bs := workload.Benchmarks(corpusSeed)
	loads := make([]workload.Workload, len(bs))
	for i, b := range bs {
		loads[i] = b
	}
	corpus, err := core.CollectCorpusContext(ctx, device.DefaultConfig(), loads, perRunSec, workers)
	if err != nil {
		return nil, fmt.Errorf("scenario corpus: %w", err)
	}
	pred, err := core.Train(corpus, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario predictor: %w", err)
	}
	trainCount.Add(1)
	t := &trained{key: key, pred: pred}
	memo.Lock()
	defer memo.Unlock()
	for _, e := range memo.entries {
		if e.key == key {
			return e, nil // a concurrent miss stored it first
		}
	}
	memo.entries = append(memo.entries, t)
	if n := len(memo.entries); n > trainedMax {
		memo.entries = append(memo.entries[:0], memo.entries[n-trainedMax:]...)
	}
	return t, nil
}
