package net

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/workload"
)

// serveRequest executes one already-decoded shard request, streaming sample
// and result frames through write, which must serialize access to the
// underlying stream and must not retain a frame once it returns (sample
// blocks are reused); pred is the request's resolved predictor (see
// Server.resolvePredictor). Each job's telemetry leaves in sample frames of
// up to wire.SampleBatch samples, the last one right before the job's
// result frame. It is the Server's execution core: a request-level
// failure — a broken transport — returns a non-nil error for the caller
// to encode; per-job failures travel as individual result
// frames and leave the shard alive. A cancelled ctx degrades to per-job
// context errors on the unfinished jobs, exactly like the local runner;
// the done (or error) frame stays the caller's responsibility.
func serveRequest(ctx context.Context, req *wire.ShardRequest, pred *core.Predictor, write func(*wire.Frame) error) error {
	out := &stream{write: write}
	jobs, global, failed := materialize(req, pred)
	for _, rf := range failed {
		out.send(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf})
	}
	if err := out.err(); err != nil {
		return err
	}

	cfg := fleet.Config{Workers: req.Workers}
	var tel *batcher
	if req.WantSamples {
		tel = &batcher{out: out, global: global, bufs: make([]*[]byte, len(jobs))}
		cfg.Sink = tel
	}
	cfg.OnResult = func(res fleet.JobResult) {
		// Stream each result as it completes, right behind the rest of its
		// telemetry, so the coordinator's progress is live and a crash
		// loses only unreported jobs. OnResult runs on the job's own
		// goroutine, which also owns the job's sample buffer.
		if tel != nil {
			tel.flush(res.Index)
		}
		rf := wire.EncodeResult(res)
		rf.Index = global[res.Index]
		out.send(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf})
	}
	fleet.LocalRunner{}.Run(ctx, cfg, jobs)
	return out.err()
}

// materialize builds req's runnable jobs and their global indices. A spec
// that fails — a device index outside the request's table included —
// becomes an error result frame instead and stays out of the batch. Jobs
// naming one device table entry share its *device.Config, so the local
// runner's phone pool, keyed by that pointer, reuses phones across them.
// Every job runs trace-free: a result frame has no room for a Trace or
// Records, so the worker never builds them.
func materialize(req *wire.ShardRequest, pred *core.Predictor) (jobs []fleet.Job, global []int, failed []*wire.ResultFrame) {
	jobs = make([]fleet.Job, 0, len(req.Jobs))
	global = make([]int, 0, len(req.Jobs)) // local batch index → global index
	for i := range req.Jobs {
		spec, err := req.Spec(i)
		var job fleet.Job
		if err == nil {
			job, err = buildJob(spec, pred)
		}
		if err != nil {
			rf := &wire.ResultFrame{Index: spec.Index, Name: spec.Name, User: spec.User, Err: err.Error()}
			if rf.Name == "" {
				rf.Name = spec.Workload.Name
			}
			failed = append(failed, rf)
			continue
		}
		job.TraceFree = true
		jobs = append(jobs, job)
		global = append(global, spec.Index)
	}
	return jobs, global, failed
}

// buildJob checks a received spec and builds its job with the scenario
// expander's builder, so the worker runs exactly the job the coordinator's
// grid holds.
func buildJob(spec fleet.JobSpec, pred *core.Predictor) (fleet.Job, error) {
	if err := spec.Validate(); err != nil {
		return fleet.Job{}, err
	}
	if spec.Controller == "usta" && pred == nil {
		return fleet.Job{}, fmt.Errorf("fleet: job spec %d uses a usta controller but the shard request carries no predictor", spec.Index)
	}
	job, err := scenario.Materialize(spec, workload.ByName(spec.Workload.Name, spec.Workload.Seed), pred)
	if err != nil {
		return fleet.Job{}, fmt.Errorf("fleet: job spec %d: %w", spec.Index, err)
	}
	return job, nil
}

// stream is the worker's outbound frame stream over a serialized write
// function. The first write error latches: later frames are dropped (a job
// must never report success after part of the stream was lost) and
// serveRequest fails the shard with it.
type stream struct {
	write func(*wire.Frame) error
	mu    sync.Mutex
	first error
}

func (s *stream) send(f *wire.Frame) {
	if s.err() != nil {
		return
	}
	if err := s.write(f); err != nil {
		s.mu.Lock()
		if s.first == nil {
			s.first = fmt.Errorf("send %s frame: %w", f.Type, err)
		}
		s.mu.Unlock()
	}
}

func (s *stream) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// batchPool recycles full-size sample buffers across jobs.
var batchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, wire.SampleBatch*sink.SampleSize)
	return &b
}}

// batcher is the worker's fleet sink: it packs each local job's samples
// into that job's buffer and ships a sample frame whenever the buffer
// holds wire.SampleBatch samples, and once more right before the job's
// result frame. A job's buffer is touched only by the goroutine running
// that job (samples and its OnResult alike), so it needs no lock.
type batcher struct {
	out    *stream
	global []int     // local batch index → global index
	bufs   []*[]byte // per local job; nil between jobs
}

func (b *batcher) Accept(id sink.JobID, s device.Sample) {
	buf := b.bufs[id]
	if buf == nil {
		buf = batchPool.Get().(*[]byte)
		b.bufs[id] = buf
	}
	*buf = sink.PackSample(*buf, s)
	if len(*buf) == wire.SampleBatch*sink.SampleSize {
		b.send(int(id), buf)
	}
}

// Close reports the stream's latched error; the fleet never calls it.
func (b *batcher) Close() error { return b.out.err() }

// send ships local job i's buffered samples as one frame and empties the
// buffer.
func (b *batcher) send(i int, buf *[]byte) {
	b.out.send(&wire.Frame{V: wire.Version, Type: wire.TypeSample,
		Sample: &wire.SampleFrame{Job: b.global[i], Samples: *buf}})
	*buf = (*buf)[:0]
}

// flush ships local job i's remaining samples and releases its buffer.
func (b *batcher) flush(i int) {
	buf := b.bufs[i]
	if buf == nil {
		return
	}
	if len(*buf) > 0 {
		b.send(i, buf)
	}
	b.bufs[i] = nil
	batchPool.Put(buf)
}
