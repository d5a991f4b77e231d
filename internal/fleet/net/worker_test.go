package net

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/scenario"
	"repro/internal/sink"
)

// longSpecs are spec'd jobs long enough to need several sample frames
// each (more than 3 × wire.SampleBatch samples), with global indices
// offset from zero and seeds pinned as a coordinator would send them.
func longSpecs(n int) []fleet.JobSpec {
	specs := make([]fleet.JobSpec, n)
	for i := range specs {
		specs[i] = fleet.JobSpec{
			Index:    10 + i,
			Workload: fleet.WorkloadRef{Name: []string{"skype", "game", "youtube"}[i%3], Seed: uint64(i)},
			Seed:     int64(100 + i),
			DurSec:   3*wire.SampleBatch + 32,
		}
	}
	return specs
}

// localSequences runs specs in-process and returns each job's telemetry,
// keyed by global index and packed, for bit-exact comparison.
func localSequences(t *testing.T, specs []fleet.JobSpec) map[int][]byte {
	t.Helper()
	jobs := make([]fleet.Job, len(specs))
	for i, spec := range specs {
		job, err := buildJob(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	var mu sync.Mutex
	seqs := map[int][]byte{}
	cfg := fleet.Config{Workers: 2, Sink: sink.Func(func(id sink.JobID, s device.Sample) {
		mu.Lock()
		g := specs[id].Index
		seqs[g] = wire.PackSample(seqs[g], s)
		mu.Unlock()
	})}
	results, _ := fleet.LocalRunner{}.Run(context.Background(), cfg, jobs)
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// TestMaterializeErrors is the worker's spec-validation error table: a
// spec that cannot be built fails with a text naming what is wrong.
func TestMaterializeErrors(t *testing.T) {
	ok := fleet.JobSpec{Workload: fleet.WorkloadRef{Name: "skype"}, Seed: 1}
	cases := []struct {
		name string
		spec func(fleet.JobSpec) fleet.JobSpec
		want string
	}{
		{"no workload", func(s fleet.JobSpec) fleet.JobSpec { s.Workload.Name = ""; return s }, "no workload"},
		{"unknown workload", func(s fleet.JobSpec) fleet.JobSpec { s.Workload.Name = "crysis"; return s }, "unknown workload"},
		{"unknown controller", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "magic"; return s }, "unknown controller"},
		{"usta without limit", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "usta"; return s }, "positive limit"},
		{"usta without predictor", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "usta"; s.LimitC = 37; return s }, "no predictor"},
		{"unpinned seed", func(s fleet.JobSpec) fleet.JobSpec { s.Seed = 0; return s }, "no pinned seed"},
		{"unknown governor", func(s fleet.JobSpec) fleet.JobSpec { s.Governor = "warp"; return s }, "unknown governor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildJob(tc.spec(ok), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := buildJob(ok, nil); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// recorder captures a worker's outbound frames. Sample blocks are copied:
// the worker reuses a block once write returns.
type recorder struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (r *recorder) write(f *wire.Frame) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := *f
	if f.Sample != nil {
		c.Sample = &wire.SampleFrame{Job: f.Sample.Job, Samples: bytes.Clone(f.Sample.Samples)}
	}
	r.frames = append(r.frames, c)
	return nil
}

// perJob splits the recorded stream per job: the concatenated sample
// blocks, the block sizes in samples, and the result (nil if none). It
// fails the test on any sample frame that follows its job's result.
func (r *recorder) perJob(t *testing.T) (blocks map[int][]byte, sizes map[int][]int, results map[int]*wire.ResultFrame) {
	t.Helper()
	blocks, sizes, results = map[int][]byte{}, map[int][]int{}, map[int]*wire.ResultFrame{}
	for _, f := range r.frames {
		switch f.Type {
		case wire.TypeSample:
			j := f.Sample.Job
			if results[j] != nil {
				t.Fatalf("job %d: sample frame after its result frame", j)
			}
			blocks[j] = append(blocks[j], f.Sample.Samples...)
			sizes[j] = append(sizes[j], len(f.Sample.Samples)/wire.SampleSize)
		case wire.TypeResult:
			results[f.Result.Index] = f.Result
		}
	}
	return blocks, sizes, results
}

// TestServeRequestBatchesTelemetry pins the worker's framing: each job's
// samples leave in full wire.SampleBatch frames plus one remainder frame
// flushed right before its result, bit-identical to the in-process run,
// and a spec that fails to materialize reports without telemetry.
func TestServeRequestBatchesTelemetry(t *testing.T) {
	specs := longSpecs(3)
	want := localSequences(t, specs)
	bad := fleet.JobSpec{Index: 20, Workload: fleet.WorkloadRef{Name: "crysis"}, Seed: 1, DurSec: 10}
	req := &wire.ShardRequest{Workers: 2, WantSamples: true}
	req.SetJobs(append(append([]fleet.JobSpec(nil), specs...), bad))
	var rec recorder
	if err := serveRequest(context.Background(), req, nil, rec.write); err != nil {
		t.Fatal(err)
	}
	blocks, sizes, results := rec.perJob(t)
	for _, spec := range specs {
		j := spec.Index
		if results[j] == nil || results[j].Err != "" {
			t.Fatalf("job %d: result %+v", j, results[j])
		}
		n := len(want[j]) / wire.SampleSize
		if n <= 3*wire.SampleBatch {
			t.Fatalf("job %d emits %d samples; the pin needs more than %d", j, n, 3*wire.SampleBatch)
		}
		for k, size := range sizes[j] {
			if last := k == len(sizes[j])-1; (!last && size != wire.SampleBatch) || size == 0 {
				t.Fatalf("job %d: frame sizes %v, want full batches then one remainder", j, sizes[j])
			}
		}
		if !bytes.Equal(blocks[j], want[j]) {
			t.Fatalf("job %d: telemetry sequence differs from the in-process run", j)
		}
	}
	if r := results[bad.Index]; r == nil || r.Err == "" || len(blocks[bad.Index]) != 0 {
		t.Fatalf("bad spec: result %+v with %d telemetry bytes", r, len(blocks[bad.Index]))
	}
}

// TestServeRequestFlushesCancelledJobs: cancelling mid-shard still flushes
// each job's pending samples ahead of its (context-error) result, and what
// a cancelled job streamed is a bit-exact prefix of its full telemetry.
func TestServeRequestFlushesCancelledJobs(t *testing.T) {
	specs := longSpecs(4)
	want := localSequences(t, specs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec recorder
	write := func(f *wire.Frame) error {
		if f.Type == wire.TypeSample {
			cancel()
		}
		return rec.write(f)
	}
	req := &wire.ShardRequest{Workers: 1, WantSamples: true}
	req.SetJobs(specs)
	if err := serveRequest(ctx, req, nil, write); err != nil {
		t.Fatal(err)
	}
	blocks, _, results := rec.perJob(t)
	cancelled := 0
	for _, spec := range specs {
		j := spec.Index
		r := results[j]
		if r == nil {
			t.Fatalf("job %d: no result frame", j)
		}
		if r.Err != "" {
			cancelled++
		}
		if !bytes.HasPrefix(want[j], blocks[j]) {
			t.Fatalf("job %d: streamed telemetry is not a prefix of the full run", j)
		}
	}
	if cancelled == 0 {
		t.Fatal("no job saw the cancellation")
	}
}

// TestServeRequestSampleWriteFailureFailsShard: a failed sample write
// latches — the shard returns the error and no later frame, result frames
// included, claims a job finished.
func TestServeRequestSampleWriteFailureFailsShard(t *testing.T) {
	errPipe := errors.New("broken pipe")
	var rec recorder
	write := func(f *wire.Frame) error {
		if f.Type == wire.TypeSample {
			return errPipe
		}
		return rec.write(f)
	}
	req := &wire.ShardRequest{Workers: 1, WantSamples: true}
	req.SetJobs(longSpecs(2))
	err := serveRequest(context.Background(), req, nil, write)
	if !errors.Is(err, errPipe) {
		t.Fatalf("serveRequest = %v, want the sample write error", err)
	}
	if len(rec.frames) != 0 {
		t.Fatalf("%d frames written after the failed sample write (first: %s)", len(rec.frames), rec.frames[0].Type)
	}
}

// TestShardDeviceTableAliasesConfigs: a grid of 2 workloads × 2 ambients
// × 3 users — four (workload, ambient) rows, each with its own config
// pointer — ships a shard request carrying exactly 2 device entries, and
// the worker's materialized jobs at equal ambients share one
// *device.Config, the key of the local runner's phone pool. A job naming
// a device outside the table comes back as a per-job error result while
// the shard's other jobs succeed.
func TestShardDeviceTableAliasesConfigs(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{
	  "version": 1,
	  "workloads": ["skype", "youtube"],
	  "population": ["a", "b", "c"],
	  "ambients_c": [25, 35],
	  "schemes": [{"name": "baseline"}],
	  "duration": {"sec": 5},
	  "seeds": {"policy": "indexed", "base": 3},
	  "trace_free": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	devCfg := device.DefaultConfig()
	grid, err := spec.Expand(scenario.Env{Device: &devCfg})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fleet.JobSpec, len(grid.Jobs))
	for i := range grid.Jobs {
		specs[i] = *grid.Jobs[i].Spec
		specs[i].Index = i
		specs[i].Seed = fleet.EffectiveSeed(3, i, &grid.Jobs[i])
	}
	sent := &wire.ShardRequest{Workers: 2}
	sent.SetJobs(specs)
	if len(sent.Devices) != 2 {
		t.Fatalf("shard request carries %d device entries, want one per ambient (2)", len(sent.Devices))
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: sent}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	req := f.Shard

	jobs, global, failed := materialize(req, nil)
	if len(failed) != 0 || len(jobs) != len(specs) {
		t.Fatalf("materialized %d jobs, %d failed; want all %d", len(jobs), len(failed), len(specs))
	}
	byAmbient := map[float64]*device.Config{}
	for i, job := range jobs {
		amb := grid.Points[global[i]].AmbientC
		if job.Device == nil || job.Device.Thermal.Ambient != amb {
			t.Fatalf("job %d runs on %+v, want the %g °C config", global[i], job.Device, amb)
		}
		if d, ok := byAmbient[amb]; ok && d != job.Device {
			t.Fatalf("jobs at %g °C run on distinct configs %p and %p", amb, d, job.Device)
		}
		byAmbient[amb] = job.Device
	}
	if len(byAmbient) != 2 {
		t.Fatalf("%d distinct configs, want 2", len(byAmbient))
	}

	const bad = 4
	outside := len(req.Devices)
	req.Jobs[bad].Device = &outside
	var rec recorder
	if err := serveRequest(context.Background(), req, nil, rec.write); err != nil {
		t.Fatal(err)
	}
	_, _, results := rec.perJob(t)
	for i := range specs {
		r := results[i]
		switch {
		case r == nil:
			t.Fatalf("job %d: no result", i)
		case i == bad && !strings.Contains(r.Err, wire.ErrDeviceIndex.Error()):
			t.Fatalf("job %d names device %d of %d: err %q, want ErrDeviceIndex", i, outside, outside, r.Err)
		case i != bad && r.Err != "":
			t.Fatalf("job %d: %s", i, r.Err)
		}
	}
}

// TestWorkerJobsRunTraceFree: a worker builds every job trace-free, since
// a result frame has no room for a Trace or Records.
func TestWorkerJobsRunTraceFree(t *testing.T) {
	req := &wire.ShardRequest{}
	req.SetJobs(longSpecs(2))
	jobs, _, failed := materialize(req, nil)
	if len(failed) != 0 || len(jobs) != 2 {
		t.Fatalf("materialized %d jobs, %d failed; want 2", len(jobs), len(failed))
	}
	for i, job := range jobs {
		if !job.TraceFree {
			t.Fatalf("job %d would build a trace", i)
		}
	}
}
