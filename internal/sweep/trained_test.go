package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// ustaSpec is a one-cell usta sweep whose self-training is cheap: every
// corpus run is cut to perRunSec.
func ustaSpec(t *testing.T, corpusSeed uint64, perRunSec float64) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(`{
	  "version": 1,
	  "workloads": ["skype"],
	  "population": ["c"],
	  "schemes": [{"name": "usta", "controller": "usta"}],
	  "duration": {"sec": 30},
	  "trace_free": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.Predictor.CorpusSeed = corpusSeed
	spec.Predictor.CorpusPerRunSec = perRunSec
	return spec
}

// resetMemo empties the process-wide memo so a test starts cold.
func resetMemo(t *testing.T) {
	t.Helper()
	memo.Lock()
	memo.entries = nil
	memo.Unlock()
}

func memoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.entries)
}

// expandCounting expands cfg and reports how many trainings and memo hits
// it caused.
func expandCounting(t *testing.T, ctx context.Context, cfg Config) (sw *Sweep, trained, hits int64, err error) {
	t.Helper()
	t0, h0 := PredictorCounts()
	sw, err = Expand(ctx, cfg)
	t1, h1 := PredictorCounts()
	return sw, t1 - t0, h1 - h0, err
}

// TestMemoKeyCoversTrainingInputs: the memo hits only on identical
// training input. Changing just the corpus seed or just the per-run
// truncation retrains; the worker count is not part of the input.
func TestMemoKeyCoversTrainingInputs(t *testing.T) {
	resetMemo(t)
	cases := []struct {
		name      string
		cfg       Config
		wantTrain int64
	}{
		{"cold", Config{Spec: ustaSpec(t, 0, 40), Workers: 2}, 1},
		{"same input", Config{Spec: ustaSpec(t, 0, 40), Workers: 2}, 0},
		{"explicit default seed", Config{Spec: ustaSpec(t, 42, 40), Workers: 2}, 0},
		{"other worker count", Config{Spec: ustaSpec(t, 0, 40), Workers: 1}, 0},
		{"corpus seed", Config{Spec: ustaSpec(t, 7, 40), Workers: 2}, 1},
		{"per-run truncation", Config{Spec: ustaSpec(t, 0, 41), Workers: 2}, 1},
	}
	for _, tc := range cases {
		_, trained, hits, err := expandCounting(t, context.Background(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if trained != tc.wantTrain || hits != 1-tc.wantTrain {
			t.Fatalf("%s: %d trainings and %d memo hits, want %d and %d", tc.name, trained, hits, tc.wantTrain, 1-tc.wantTrain)
		}
	}
}

// TestMemoMatchesRetrainAtAnyWorkerCount: self-training is bit-identical
// across worker counts, which is what lets the key leave them out — and a
// memoized predictor encodes to the same bytes, and so the same ID, as a
// fresh training.
func TestMemoMatchesRetrainAtAnyWorkerCount(t *testing.T) {
	var ref *fleet.EncodedPredictor
	for _, workers := range []int{1, 2, 0} {
		resetMemo(t)
		sw, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 300), Workers: workers, Runner: fleet.LocalRunner{}})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sw.pred
		} else if !bytes.Equal(sw.pred.Doc(), ref.Doc()) || sw.pred.ID() != ref.ID() {
			t.Fatalf("workers=%d trained a different predictor", workers)
		}
	}
	warm, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 300), Workers: 2, Runner: fleet.LocalRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.pred.Doc(), ref.Doc()) || warm.pred.ID() != ref.ID() {
		t.Fatal("memoized predictor encodes differently from a fresh training")
	}
}

// TestMemoEncodesOnlyForRunners: an in-process sweep never encodes the
// predictor; the first sweep with a Runner encodes and hashes it once,
// and later ones reuse that encoding.
func TestMemoEncodesOnlyForRunners(t *testing.T) {
	resetMemo(t)
	local, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 40)})
	if err != nil {
		t.Fatal(err)
	}
	memo.Lock()
	enc := memo.entries[0].enc
	memo.Unlock()
	if local.pred != nil || enc != nil {
		t.Fatal("an in-process sweep encoded the predictor")
	}
	a, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 40), Runner: fleet.LocalRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 40), Runner: fleet.LocalRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	if a.pred == nil || a.pred != b.pred {
		t.Fatal("runner sweeps on one training input did not share one encoding")
	}
}

// TestMemoSkipsCancelledTraining: a training cut short by cancellation
// fails the sweep and is not stored; the next sweep trains and succeeds.
func TestMemoSkipsCancelledTraining(t *testing.T) {
	resetMemo(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, trained, _, err := expandCounting(t, ctx, Config{Spec: ustaSpec(t, 0, 40)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled training: err = %v, want context.Canceled", err)
	}
	if trained != 0 || memoLen() != 0 {
		t.Fatalf("cancelled training counted (%d) or stored (%d entries)", trained, memoLen())
	}
	sw, trained, hits, err := expandCounting(t, context.Background(), Config{Spec: ustaSpec(t, 0, 40)})
	if err != nil {
		t.Fatal(err)
	}
	if trained != 1 || hits != 0 || sw.cfg.Predictor == nil {
		t.Fatalf("retry after cancellation: %d trainings, %d hits", trained, hits)
	}
}

// TestMemoIsBounded: more distinct training inputs than the bound never
// grow the memo past it, and the oldest input is the one evicted.
func TestMemoIsBounded(t *testing.T) {
	resetMemo(t)
	for i := 0; i < trainedMax+3; i++ {
		if _, err := Expand(context.Background(), Config{Spec: ustaSpec(t, uint64(100+i), 20)}); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > trainedMax {
			t.Fatalf("memo holds %d entries after %d inputs, bound %d", n, i+1, trainedMax)
		}
	}
	if _, trained, _, err := expandCounting(t, context.Background(), Config{Spec: ustaSpec(t, 100+trainedMax+2, 20)}); err != nil || trained != 0 {
		t.Fatalf("newest input retrained (%d, %v)", trained, err)
	}
	if _, trained, _, err := expandCounting(t, context.Background(), Config{Spec: ustaSpec(t, 100, 20)}); err != nil || trained != 1 {
		t.Fatalf("oldest input was not evicted (%d trainings, %v)", trained, err)
	}
}

// TestMemoConcurrentMisses: sweeps racing on one cold input all get the
// same predictor, and the memo keeps a single entry for it.
func TestMemoConcurrentMisses(t *testing.T) {
	resetMemo(t)
	const n = 4
	preds := make([]*fleet.EncodedPredictor, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 20), Workers: 1, Runner: fleet.LocalRunner{}})
			if err != nil {
				t.Error(err)
				return
			}
			preds[i] = sw.pred
		}(i)
	}
	wg.Wait()
	for i := range preds {
		if preds[i] == nil || !bytes.Equal(preds[i].Doc(), preds[0].Doc()) {
			t.Fatalf("sweep %d got a different predictor", i)
		}
	}
	if memoLen() != 1 {
		t.Fatalf("memo holds %d entries for one input", memoLen())
	}
}

// TestMemoBypasses: a caller-supplied predictor never touches the memo,
// and a NaN per-run truncation matches no key, its own included.
func TestMemoBypasses(t *testing.T) {
	resetMemo(t)
	sw, err := Expand(context.Background(), Config{Spec: ustaSpec(t, 0, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, trained, hits, err := expandCounting(t, context.Background(), Config{Spec: ustaSpec(t, 0, 20), Predictor: sw.cfg.Predictor}); err != nil || trained != 0 || hits != 0 {
		t.Fatalf("supplied predictor: %d trainings, %d hits, err %v", trained, hits, err)
	}
	if nan := (trainingKey{42, math.NaN()}); nan == nan {
		t.Fatal("a NaN training input matches a memo key")
	}
}
