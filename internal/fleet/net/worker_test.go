package net

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// longSpecs are spec'd jobs long enough to need several sample frames
// each (more than 3 × wire.SampleBatch samples), with global indices
// offset from zero and seeds pinned as a coordinator would send them.
func longSpecs(n int) []fleet.JobSpec {
	specs := make([]fleet.JobSpec, n)
	for i := range specs {
		specs[i] = fleet.JobSpec{
			Index:     10 + i,
			Workload:  fleet.WorkloadRef{Name: []string{"skype", "game", "youtube"}[i%3], Seed: uint64(i)},
			Seed:      int64(100 + i),
			DurSec:    3*wire.SampleBatch + 32,
			TraceFree: true,
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
		job, err := wire.Materialize(spec, nil)
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
	req := &wire.ShardRequest{Jobs: append(append([]fleet.JobSpec(nil), specs...), bad), Workers: 2, WantSamples: true}
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
	req := &wire.ShardRequest{Jobs: specs, Workers: 1, WantSamples: true}
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
	req := &wire.ShardRequest{Jobs: longSpecs(2), Workers: 1, WantSamples: true}
	err := serveRequest(context.Background(), req, nil, write)
	if !errors.Is(err, errPipe) {
		t.Fatalf("serveRequest = %v, want the sample write error", err)
	}
	if len(rec.frames) != 0 {
		t.Fatalf("%d frames written after the failed sample write (first: %s)", len(rec.frames), rec.frames[0].Type)
	}
}
