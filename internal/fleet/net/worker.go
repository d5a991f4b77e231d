package net

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// crashEnv is a test-only fault injector: a worker exits abruptly (code 3,
// no done frame) right after reporting the job with this global index. The
// pipe-runner tests use it to simulate a worker crash mid-shard.
const crashEnv = "USTA_WORKER_CRASH_ON_INDEX"

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
	canonicalizeDevices(req.Jobs)
	out := &stream{write: write}

	// Materialize the runnable jobs; specs that fail report immediately as
	// per-job errors and stay out of the batch.
	jobs := make([]fleet.Job, 0, len(req.Jobs))
	global := make([]int, 0, len(req.Jobs)) // local batch index → global index
	for i := range req.Jobs {
		spec := &req.Jobs[i]
		job, merr := wire.Materialize(*spec, pred)
		if merr != nil {
			rf := &wire.ResultFrame{Index: spec.Index, Name: spec.Name, User: spec.User, Err: merr.Error()}
			if rf.Name == "" {
				rf.Name = spec.Workload.Name
			}
			out.send(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf})
			continue
		}
		jobs = append(jobs, job)
		global = append(global, spec.Index)
	}
	if err := out.err(); err != nil {
		return err
	}

	crashOn, crashArmed := crashIndex()
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
		idx := global[res.Index]
		rf := wire.EncodeResult(res)
		rf.Index = idx
		out.send(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf})
		if crashArmed && idx == crashOn {
			os.Exit(3)
		}
	}
	fleet.LocalRunner{}.Run(ctx, cfg, jobs)
	return out.err()
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
	b := make([]byte, 0, wire.SampleBatch*wire.SampleSize)
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
	*buf = wire.PackSample(*buf, s)
	if len(*buf) == wire.SampleBatch*wire.SampleSize {
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

// canonicalizeDevices aliases value-identical device configurations to
// one pointer. JSON decoding gives every spec its own Device copy, but the
// local runner's phone pool is keyed by the Job.Device pointer — without
// re-aliasing, a shard sweeping one configuration would never reuse a
// phone and lose the pool's allocation win. Shards carry few distinct
// configurations (one per scenario workload × ambient row), so the
// quadratic-in-unique-configs scan is cheap.
func canonicalizeDevices(specs []fleet.JobSpec) {
	var uniq []*device.Config
	for i := range specs {
		d := specs[i].Device
		if d == nil {
			continue
		}
		matched := false
		for _, u := range uniq {
			if reflect.DeepEqual(*u, *d) {
				specs[i].Device = u
				matched = true
				break
			}
		}
		if !matched {
			uniq = append(uniq, d)
		}
	}
}

// crashIndex reads the fault-injection env knob. It is honored only when
// the worker is a Go test binary, so a stray environment variable can
// never kill production workers (a pipe runner forwards its whole
// environment to every worker it spawns).
func crashIndex() (int, bool) {
	if !strings.HasSuffix(os.Args[0], ".test") {
		return 0, false
	}
	v := os.Getenv(crashEnv)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}
