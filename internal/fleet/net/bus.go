package net

import (
	"context"
	"sync"

	"repro/internal/device"
	"repro/internal/sink"
)

// Bus is the job server's telemetry aggregation point: a sink.Sink that
// collects per-worker sample streams (arriving in any completion order)
// and replays them to subscribers merged into submission order — all of
// job 0's samples, then job 1's, and so on. Subscribers can attach at any
// time, including mid-run and after the run: each gets the full ordered
// stream from the beginning, streamed live as the emission frontier
// advances. A job's samples become emittable once every lower-indexed job
// has finished (its own may still be arriving — a subscriber tails them).
type Bus struct {
	mu      sync.Mutex
	cond    *sync.Cond
	samples [][]device.Sample
	done    []bool
	closed  bool
}

// NewBus creates a bus for a run of total jobs.
func NewBus(total int) *Bus {
	b := &Bus{samples: make([][]device.Sample, total), done: make([]bool, total)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Accept implements sink.Sink: samples accumulate per job. Out-of-range
// job IDs are dropped.
func (b *Bus) Accept(id sink.JobID, s device.Sample) {
	i := int(id)
	b.mu.Lock()
	if i < 0 || i >= len(b.samples) || b.done[i] {
		b.mu.Unlock()
		return
	}
	b.samples[i] = append(b.samples[i], s)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Finish marks job i complete: its sample list is final. The runner's
// OnResult hook calls this as results arrive.
func (b *Bus) Finish(i int) {
	b.mu.Lock()
	if i >= 0 && i < len(b.done) {
		b.done[i] = true
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Close ends the run: every job is finalized (failed jobs keep whatever
// partial telemetry they streamed) and subscribers drain to completion.
func (b *Bus) Close() error {
	b.mu.Lock()
	b.closed = true
	for i := range b.done {
		b.done[i] = true
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	return nil
}

// Stream replays the merged telemetry to fn in submission order, blocking
// while the stream is live: samples of job i are delivered once jobs
// 0..i-1 have finished, tailing job i's own arrivals. Each call of fn
// hands over a run: every sample of one job that is available when the
// subscriber takes the lock, so a subscriber that falls behind catches up
// in large runs and a live tail sees each arrival in a run of its own.
// The run is read-only and stays valid after fn returns. Stream returns
// nil when the bus is closed and everything was delivered, or the
// context's error. fn errors abort the subscription.
func (b *Bus) Stream(ctx context.Context, fn func(job int, run []device.Sample) error) error {
	// A cond var cannot select on ctx; a context watcher broadcasts so
	// waiting subscribers notice cancellation.
	stop := context.AfterFunc(ctx, func() { b.cond.Broadcast() })
	defer stop()

	// Cursor invariant: the cursor sits on job only after jobs 0..job-1
	// finished and were fully delivered, so delivering the cursor job's
	// samples as they arrive is always frontier-safe. Accept only appends,
	// so a run — capped at its length — never sees a later write.
	job, off := 0, 0
	for {
		b.mu.Lock()
		var run []device.Sample
		for run == nil {
			if err := ctx.Err(); err != nil {
				b.mu.Unlock()
				return err
			}
			if job >= len(b.samples) {
				b.mu.Unlock()
				return nil
			}
			switch s := b.samples[job]; {
			case off < len(s):
				run = s[off:len(s):len(s)]
			case b.done[job]:
				job, off = job+1, 0
			default:
				b.cond.Wait()
			}
		}
		b.mu.Unlock()
		if err := fn(job, run); err != nil {
			return err
		}
		off += len(run)
	}
}
