package net

import (
	"context"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/device"
	"repro/internal/sink"
)

// Bus memory bounds: a bus that holds more than busSpillBytes of telemetry
// moves its finished jobs to a spool file; Accept packs samples into
// chunks of busChunk bytes; finished jobs reach the spool through one
// write buffer of busWriteBuf bytes.
const (
	busSpillBytes = 1 << 20
	busChunk      = 16 << 10
	busWriteBuf   = 256 << 10
)

// Bus is the job server's telemetry aggregation point: a sink.Sink that
// collects per-worker sample streams (arriving in any completion order)
// and replays them to subscribers merged into submission order — all of
// job 0's samples, then job 1's, and so on. Subscribers can attach at any
// time, including mid-run and after the run: each gets the full ordered
// stream from the beginning, streamed live as the emission frontier
// advances. A job's samples become emittable once every lower-indexed job
// has finished (its own may still be arriving — a subscriber tails them).
//
// Telemetry is held in sink.PackSample's layout: the wire's sample blocks
// as they arrive (AcceptPacked, no copy) and samples accepted one by one
// packed into fixed chunks. A bus built with a spool (newSpoolBus) that
// holds more than busSpillBytes creates its spool file and from then on
// moves each finished job's bytes there, so memory holds the unfinished
// jobs and about one write buffer of finished ones. A failed spool create
// or write is reported once and leaves the rest of the bus's telemetry in
// memory.
type Bus struct {
	mu   sync.Mutex
	cond *sync.Cond
	jobs []busJob
	held int // bytes of telemetry in memory

	newSpool  func() (*os.File, error) // nil: the bus never spills
	spoolErr  func(error)              // told the first spool failure
	spool     *os.File                 // writer; nil unless spilling
	spoolName string                   // "" until the spool exists
	failed    bool                     // the spool failed: memory only
	wbuf      []byte
	flushed   int64 // bytes written to the spool
	pending   []int // jobs whose bytes are (partly) in wbuf, in file order
}

// busJob is where one job's telemetry is.
type busJob struct {
	blocks  [][]byte // in memory, in arrival order; nil once on disk
	size    int      // bytes received
	off     int64    // where the job's bytes start in the spool
	done    bool
	packing bool // the last block is a chunk Accept appends to
	onDisk  bool // the job's bytes are all in the spool, none in memory
}

// NewBus creates an in-memory bus for a run of total jobs.
func NewBus(total int) *Bus { return newSpoolBus(total, nil, nil) }

// newSpoolBus creates a bus that spills to the file newSpool creates once
// it holds more than busSpillBytes; onErr hears the first spool failure.
func newSpoolBus(total int, newSpool func() (*os.File, error), onErr func(error)) *Bus {
	b := &Bus{jobs: make([]busJob, total), newSpool: newSpool, spoolErr: onErr}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// open reports whether job i still takes telemetry.
func (b *Bus) open(i int) bool {
	return i >= 0 && i < len(b.jobs) && !b.jobs[i].done
}

// Accept implements sink.Sink: the sample is packed onto its job's last
// chunk. Out-of-range job IDs and samples of finished jobs are dropped.
func (b *Bus) Accept(id sink.JobID, s device.Sample) {
	i := int(id)
	b.mu.Lock()
	if !b.open(i) {
		b.mu.Unlock()
		return
	}
	j := &b.jobs[i]
	n := len(j.blocks)
	if !j.packing || len(j.blocks[n-1]) == busChunk {
		j.blocks = append(j.blocks, make([]byte, 0, busChunk))
		j.packing = true
		n++
	}
	j.blocks[n-1] = sink.PackSample(j.blocks[n-1], s)
	b.grew(j, sink.SampleSize)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// AcceptPacked implements sink.PackedSink: the bus keeps the block as is.
func (b *Bus) AcceptPacked(id sink.JobID, block []byte) {
	i := int(id)
	b.mu.Lock()
	if !b.open(i) || len(block) == 0 {
		b.mu.Unlock()
		return
	}
	j := &b.jobs[i]
	j.blocks = append(j.blocks, block)
	j.packing = false
	b.grew(j, len(block))
	b.mu.Unlock()
	b.cond.Broadcast()
}

// grew counts n new bytes of j and starts the spill once the bus holds
// more than busSpillBytes.
func (b *Bus) grew(j *busJob, n int) {
	j.size += n
	b.held += n
	if b.held <= busSpillBytes || b.newSpool == nil || b.spoolName != "" || b.failed {
		return
	}
	f, err := b.newSpool()
	if err != nil {
		b.fail(err)
		return
	}
	b.spool, b.spoolName = f, f.Name()
	b.wbuf = make([]byte, 0, busWriteBuf)
	for i := range b.jobs {
		if b.jobs[i].done {
			b.spill(i)
		}
	}
}

// spill copies finished job i's bytes into the write buffer, writing the
// buffer to the spool whenever it fills. The job keeps its blocks until
// its last byte is written.
func (b *Bus) spill(i int) {
	j := &b.jobs[i]
	if b.spool == nil || j.size == 0 {
		return
	}
	j.off = b.flushed + int64(len(b.wbuf))
	b.pending = append(b.pending, i)
	for _, blk := range j.blocks {
		for len(blk) > 0 {
			n := copy(b.wbuf[len(b.wbuf):cap(b.wbuf)], blk)
			b.wbuf, blk = b.wbuf[:len(b.wbuf)+n], blk[n:]
			if len(b.wbuf) == cap(b.wbuf) && !b.flush() {
				return
			}
		}
	}
}

// flush writes the write buffer to the spool and releases the blocks of
// every pending job whose bytes are now all there. It reports whether the
// spool is still good.
func (b *Bus) flush() bool {
	if _, err := b.spool.Write(b.wbuf); err != nil {
		b.fail(err)
		return false
	}
	b.flushed += int64(len(b.wbuf))
	b.wbuf = b.wbuf[:0]
	k := 0
	for ; k < len(b.pending); k++ {
		i := b.pending[k]
		j := &b.jobs[i]
		if j.off+int64(j.size) > b.flushed {
			break
		}
		b.held -= j.size
		j.blocks, j.onDisk = nil, true
	}
	b.pending = append(b.pending[:0], b.pending[k:]...)
	return true
}

// fail ends the spill after a spool error: the writer closes, jobs not yet
// written keep their blocks, and the rest of the run stays in memory. Jobs
// already on disk stay readable.
func (b *Bus) fail(err error) {
	b.failed = true
	if b.spool != nil {
		b.spool.Close()
		b.spool = nil
	}
	b.wbuf, b.pending = nil, nil
	if b.spoolErr != nil {
		b.spoolErr(err)
	}
}

// Finish marks job i complete: its telemetry is final and, on a spilling
// bus, moves to the spool. The runner's OnResult hook calls this as
// results arrive.
func (b *Bus) Finish(i int) {
	b.mu.Lock()
	if b.open(i) {
		b.jobs[i].done = true
		b.spill(i)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Close ends the run: every job is finalized (failed jobs keep whatever
// partial telemetry they streamed) and subscribers drain to completion. A
// spilling bus writes out its last jobs and closes its writer, holding no
// telemetry in memory afterwards.
func (b *Bus) Close() error {
	b.mu.Lock()
	for i := range b.jobs {
		if j := &b.jobs[i]; !j.done {
			j.done = true
			b.spill(i)
		}
	}
	// A failed flush has closed the writer already.
	if b.spool != nil && (len(b.wbuf) == 0 || b.flush()) {
		f := b.spool
		b.spool, b.wbuf = nil, nil
		if err := f.Close(); err != nil {
			b.fail(err)
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	return nil
}

// spilled reports whether the bus made a spool file: some of its
// telemetry may be there and nowhere else.
func (b *Bus) spilled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spoolName != ""
}

// heldBytes reports the telemetry bytes the bus holds in memory.
func (b *Bus) heldBytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// Stream replays the merged telemetry to fn in submission order, blocking
// while the stream is live: samples of job i are delivered once jobs
// 0..i-1 have finished, tailing job i's own arrivals. Each call of fn
// hands over a run: every sample of one job that is available when the
// subscriber takes the lock, so a subscriber that falls behind catches up
// in large runs, a finished job comes as a single run whether it is in
// memory or in the spool, and a live tail sees each arrival in a run of
// its own. The run is decoded into storage the subscriber reuses: it is
// valid only until fn returns, and fn must not keep it. A subscriber that
// reads the spool opens its own handle on it and closes it on return.
// Stream returns nil when the bus is closed and everything was delivered,
// the context's error, or a spool read error. fn errors abort the
// subscription.
func (b *Bus) Stream(ctx context.Context, fn func(job int, run []device.Sample) error) error {
	// A cond var cannot select on ctx; a context watcher broadcasts so
	// waiting subscribers notice cancellation.
	stop := context.AfterFunc(ctx, func() { b.cond.Broadcast() })
	defer stop()
	var (
		run []device.Sample
		raw []byte   // a spooled job's bytes
		rd  *os.File // this subscriber's spool handle
	)
	defer func() {
		if rd != nil {
			rd.Close()
		}
	}()

	// Cursor invariant: the cursor sits on job only after jobs 0..job-1
	// finished and were fully delivered, so delivering the cursor job's
	// samples as they arrive is always frontier-safe. off counts the bytes
	// of job already delivered; a job's bytes only grow until it finishes,
	// and a job in the spool never changes again.
	job, off := 0, 0
	for {
		run = run[:0]
		from, n := int64(-1), 0 // spool extent to read
		b.mu.Lock()
		for len(run) == 0 && from < 0 {
			if err := ctx.Err(); err != nil {
				b.mu.Unlock()
				return err
			}
			if job >= len(b.jobs) {
				b.mu.Unlock()
				return nil
			}
			switch j := &b.jobs[job]; {
			case off < j.size && j.onDisk:
				from, n = j.off+int64(off), j.size-off
			case off < j.size:
				run = j.appendRun(run, off)
			case j.done:
				job, off = job+1, 0
			default:
				b.cond.Wait()
			}
		}
		name := b.spoolName
		b.mu.Unlock()
		if from >= 0 {
			if rd == nil {
				f, err := os.Open(name)
				if err != nil {
					return err
				}
				rd = f
			}
			raw = slices.Grow(raw[:0], n)[:n]
			if m, err := rd.ReadAt(raw, from); m < n {
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
			sink.EachSample(raw, func(s device.Sample) { run = append(run, s) })
		}
		if err := fn(job, run); err != nil {
			return err
		}
		off += len(run) * sink.SampleSize
	}
}

// appendRun decodes the job's bytes from byte off on onto run.
func (j *busJob) appendRun(run []device.Sample, off int) []device.Sample {
	for _, blk := range j.blocks {
		if off >= len(blk) {
			off -= len(blk)
			continue
		}
		sink.EachSample(blk[off:], func(s device.Sample) { run = append(run, s) })
		off = 0
	}
	return run
}
