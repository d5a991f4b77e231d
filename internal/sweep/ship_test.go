package sweep_test

import (
	"context"
	"errors"
	stdnet "net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/ml"
	"repro/internal/ml/m5p"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestExpandRefusesToShipOtherModels: a predictor that is not REPTree
// drives USTA on the in-process pool, but a sweep that would ship it to
// worker daemons fails at Expand with core.ErrNotREPTree, before any host
// is dialed.
func TestExpandRefusesToShipOtherModels(t *testing.T) {
	ctx := context.Background()
	bs := workload.Benchmarks(42)
	loads := make([]workload.Workload, len(bs))
	for i, b := range bs {
		loads[i] = b
	}
	corpus, err := core.CollectCorpusContext(ctx, device.DefaultConfig(), loads, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Train(corpus, func() ml.Regressor { return m5p.New() })
	if err != nil {
		t.Fatal(err)
	}
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

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()
	runner := fleetnet.New([]string{ln.Addr().String()})
	_, err = sweep.Expand(ctx, sweep.Config{Spec: spec, Predictor: pred, Runner: runner})
	if !errors.Is(err, core.ErrNotREPTree) {
		t.Fatalf("Expand on a net runner = %v; want core.ErrNotREPTree", err)
	}
	if n := dials.Load(); n != 0 {
		t.Fatalf("refused sweep dialed its host %d times", n)
	}

	sw, err := sweep.Expand(ctx, sweep.Config{Spec: spec, Predictor: pred, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(ctx, nil, sweep.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.FirstError(res.Results); err != nil || len(res.Results) != 1 {
		t.Fatalf("in-process run: %d results, first error %v", len(res.Results), err)
	}
}
