package repro_test

import (
	"context"
	"testing"

	"repro"
)

// The facade tests are smoke-level: the underlying behaviour is covered in
// depth by the internal package suites; here we verify the public surface
// wires everything together.

func TestFacadeBenchmarksExposed(t *testing.T) {
	bs := repro.Benchmarks(1)
	if len(bs) != 13 {
		t.Fatalf("Benchmarks = %d workloads, want 13", len(bs))
	}
	names := repro.BenchmarkNames()
	if len(names) != 13 {
		t.Fatalf("BenchmarkNames = %d, want 13", len(names))
	}
	for i, w := range bs {
		if w.Name() != names[i] {
			t.Fatalf("name mismatch at %d: %q vs %q", i, w.Name(), names[i])
		}
	}
	if repro.WorkloadByName("skype", 1) == nil {
		t.Fatal("WorkloadByName(skype) = nil")
	}
	if repro.WorkloadByName("nope", 1) != nil {
		t.Fatal("WorkloadByName(nope) should be nil")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := repro.DefaultDeviceConfig()
	loads := []repro.Workload{
		repro.WorkloadByName("skype", 2),
		repro.StaircaseRamp(3, 0.1, 0.9, 6, 40),
		repro.Idle(180),
	}
	corpus, err := repro.CollectCorpusContext(context.Background(), cfg, loads, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 1000 {
		t.Fatalf("corpus = %d records", len(corpus))
	}
	pred, err := repro.TrainPredictor(corpus)
	if err != nil {
		t.Fatal(err)
	}

	s, err := repro.NewSession(repro.WithController(repro.NewUSTA(pred, repro.DefaultLimitC)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFor(context.Background(), repro.WorkloadByName("skype", 4), 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSkinC < 26 || res.MaxSkinC > 45 {
		t.Fatalf("implausible peak skin %.1f", res.MaxSkinC)
	}
	if res.Ctrl == "" {
		t.Fatal("controller name missing from result")
	}
}

func TestFacadeRegressorConstructors(t *testing.T) {
	for _, r := range []repro.Regressor{
		repro.NewREPTreeRegressor(1),
		repro.NewM5PRegressor(),
		repro.NewLinearRegressor(),
		repro.NewMLPRegressor(1),
	} {
		if r.Name() == "" {
			t.Fatal("regressor without a name")
		}
	}
}

func TestFacadePolicies(t *testing.T) {
	if repro.LadderPolicy(3, 11) != 11 {
		t.Fatal("LadderPolicy broken through facade")
	}
	if repro.HardPolicy(1, 11) != 0 {
		t.Fatal("HardPolicy broken through facade")
	}
	if repro.ProportionalPolicy(1, 11) == 0 {
		t.Fatal("ProportionalPolicy broken through facade")
	}
	if repro.MarginLadder(4)(3, 11) == 11 {
		t.Fatal("MarginLadder broken through facade")
	}
}

func TestFacadeStudyPopulation(t *testing.T) {
	pop := repro.StudyPopulation()
	if len(pop) != 10 {
		t.Fatalf("population = %d want 10", len(pop))
	}
	if repro.DefaultLimitC != 37.0 {
		t.Fatalf("DefaultLimitC = %v", repro.DefaultLimitC)
	}
}

func TestFacadeSyntheticWorkloads(t *testing.T) {
	if w := repro.SquareWave(1, 10, 0.5, 0.9, 0.1, 60); w.Duration() != 60 {
		t.Fatal("SquareWave broken")
	}
	if w := repro.RandomPhases(1, 5, 30); w.Duration() != 150 {
		t.Fatal("RandomPhases broken")
	}
}
