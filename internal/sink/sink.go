// Package sink is the streaming back door of the fleet engine: a Sink
// receives every telemetry Sample a run emits, tagged with the job that
// produced it, so population-scale sweeps can stream results to disk (or an
// aggregator) with O(1) memory instead of buffering RunResult.Trace per job.
//
// Built-ins cover the common shapes: CSV and JSONL appenders, a bounded
// ring buffer, a per-job downsampler, and a fan-out Tee. All built-ins are
// safe for concurrent Accept calls — the fleet delivers samples from worker
// goroutines — and latch their first I/O error for Close to report.
//
// A Sink is wired into a single run via fleet.WithSink, or into a whole
// batch via fleet.Config.Sink. The legacy func(Sample) observer remains the
// low-level escape hatch; FromFunc adapts it.
package sink

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/device"
)

// JobID identifies the job a sample belongs to: the job's index in the
// submitted batch (0 for single-session runs), matching JobResult.Index.
type JobID int

// Sink consumes a stream of per-job telemetry samples. Accept may be called
// concurrently from fleet worker goroutines; implementations must
// synchronize internally. Close flushes buffered output and reports the
// first error encountered anywhere in the stream. The fleet never closes a
// sink — the caller that built it owns its lifecycle.
type Sink interface {
	Accept(job JobID, s device.Sample)
	Close() error
}

// Func adapts a per-sample function into a Sink with a no-op Close. The
// function must be safe for concurrent calls.
func Func(fn func(JobID, device.Sample)) Sink { return funcSink(fn) }

type funcSink func(JobID, device.Sample)

func (f funcSink) Accept(job JobID, s device.Sample) { f(job, s) }
func (f funcSink) Close() error                      { return nil }

// FromFunc adapts a legacy func(Sample) observer into a Sink, dropping the
// job tag and serializing calls — the backward-compatibility bridge from
// the WithObserver era.
func FromFunc(fn func(device.Sample)) Sink {
	var mu sync.Mutex
	return Func(func(_ JobID, s device.Sample) {
		mu.Lock()
		fn(s)
		mu.Unlock()
	})
}

// csvColumns is the header shared by the CSV appender; the column set and
// order mirror the run trace plus the leading job tag.
const csvHeader = "job,time_s,skin_c,screen_c,die_c,battery_c,freq_mhz,util,max_level"

// CSV streams samples as CSV rows (one header, then one row per sample)
// with the same numeric formatting as trace.WriteCSV. Rows from concurrent
// jobs interleave; the leading job column keys them back apart.
type CSV struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
	hdr bool
}

// NewCSV creates a CSV appender over w. The caller owns w; Close flushes
// the sink's buffer but does not close w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: bufio.NewWriter(w)} }

// Accept appends one CSV row; after the first write error it is a no-op.
func (c *CSV) Accept(job JobID, s device.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if !c.hdr {
		c.hdr = true
		if _, err := c.w.WriteString(csvHeader + "\n"); err != nil {
			c.err = err
			return
		}
	}
	_, err := fmt.Fprintf(c.w, "%d,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n",
		int(job), s.TimeSec, s.SkinC, s.ScreenC, s.DieC, s.BatteryC,
		s.FreqMHz, s.Util, s.MaxLevel)
	if err != nil {
		c.err = err
	}
}

// Close flushes the buffer and returns the first error of the stream.
func (c *CSV) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.err = c.w.Flush()
	return c.err
}

// JSONL streams samples as one JSON object per line:
//
//	{"job":3,"t":12.05,"skin_c":31.2,...,"max_level":11}
//
// The encoding is hand-rolled (fixed key order) so a million-sample sweep
// does not pay reflection per line. Floats are written by an integer-only
// Schubfach shortest-digit kernel whose output equals
// strconv.AppendFloat(b, v, 'g', -1, 64) byte for byte for every float64
// (TestAppendFloatMatchesStrconv, FuzzAppendFloat), so each value parses
// back to its exact bits, at about half strconv's cost per float.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL creates a JSONL appender over w. The caller owns w; Close
// flushes the sink's buffer but does not close w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: bufio.NewWriter(w)} }

// Accept appends one JSON line; after the first write error it is a no-op.
func (j *JSONL) Accept(job JobID, s device.Sample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = AppendJSONL(j.buf[:0], job, s)
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = err
	}
}

// AppendJSONL appends one sample's JSONL line (newline included) to b and
// returns the extended slice — the shared line encoding behind the JSONL
// sink and the fleet service's telemetry endpoints.
func AppendJSONL(b []byte, job JobID, s device.Sample) []byte {
	b = append(b, `{"job":`...)
	b = strconv.AppendInt(b, int64(job), 10)
	b = appendField(b, "t", s.TimeSec)
	b = appendField(b, "skin_c", s.SkinC)
	b = appendField(b, "screen_c", s.ScreenC)
	b = appendField(b, "die_c", s.DieC)
	b = appendField(b, "battery_c", s.BatteryC)
	b = appendField(b, "freq_mhz", s.FreqMHz)
	b = appendField(b, "util", s.Util)
	b = append(b, `,"max_level":`...)
	b = strconv.AppendInt(b, int64(s.MaxLevel), 10)
	b = append(b, '}', '\n')
	return b
}

func appendField(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendFloat(b, v)
}

// Close flushes the buffer and returns the first error of the stream.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Entry is one buffered (job, sample) pair.
type Entry struct {
	Job    JobID
	Sample device.Sample
}

// Ring keeps the most recent n samples across all jobs — the
// fixed-footprint tail a live dashboard or a post-mortem wants from an
// arbitrarily long sweep.
type Ring struct {
	mu    sync.Mutex
	buf   []Entry
	next  int
	total int
}

// NewRing creates a ring buffer holding the last n samples (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Entry, n)}
}

// Accept records the sample, overwriting the oldest once full.
func (r *Ring) Accept(job JobID, s device.Sample) {
	r.mu.Lock()
	r.buf[r.next] = Entry{Job: job, Sample: s}
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Close is a no-op; the ring holds no external resources.
func (r *Ring) Close() error { return nil }

// Total reports how many samples were ever accepted.
func (r *Ring) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered samples, oldest first.
func (r *Ring) Snapshot() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Entry, 0, n)
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Downsampler forwards at most one sample per job per periodSec of
// simulated time (the first sample of each job always passes). It thins
// 1 Hz telemetry to dashboard rates before an expensive downstream sink.
type Downsampler struct {
	mu     sync.Mutex
	period float64
	last   map[JobID]float64
	next   Sink
}

// NewDownsampler creates a downsampler forwarding to next every periodSec
// of per-job simulated time (periodSec <= 0 forwards everything).
func NewDownsampler(periodSec float64, next Sink) *Downsampler {
	return &Downsampler{period: periodSec, last: make(map[JobID]float64), next: next}
}

// Accept forwards the sample if the job's downsampling period has elapsed.
func (d *Downsampler) Accept(job JobID, s device.Sample) {
	d.mu.Lock()
	last, seen := d.last[job]
	pass := !seen || d.period <= 0 || s.TimeSec-last+1e-9 >= d.period
	if pass {
		d.last[job] = s.TimeSec
	}
	d.mu.Unlock()
	if pass {
		d.next.Accept(job, s)
	}
}

// Close closes the downstream sink.
func (d *Downsampler) Close() error { return d.next.Close() }

// Tee fans every sample out to all child sinks, in order. A Tee is a
// PackedSink: a packed block goes as is to every child that takes blocks
// (children of nested Tees included) and is decoded once for the rest.
type Tee struct {
	sinks  []Sink
	packed []PackedSink // block-taking leaves, nested Tees flattened
	plain  []Sink       // leaves that take samples
}

// NewTee creates a fan-out multiplexer over the given sinks.
func NewTee(sinks ...Sink) *Tee {
	t := &Tee{sinks: sinks}
	t.split(sinks)
	return t
}

// split sorts the leaves under sinks into block-taking and sample-taking.
func (t *Tee) split(sinks []Sink) {
	for _, s := range sinks {
		switch c := s.(type) {
		case *Tee:
			t.split(c.sinks)
		case PackedSink:
			t.packed = append(t.packed, c)
		default:
			t.plain = append(t.plain, s)
		}
	}
}

// Accept forwards the sample to every child sink.
func (t *Tee) Accept(job JobID, s device.Sample) {
	for _, s2 := range t.sinks {
		s2.Accept(job, s)
	}
}

// AcceptPacked implements PackedSink: the block goes as is to every
// block-taking leaf, and each of its samples once to every other leaf.
func (t *Tee) AcceptPacked(job JobID, block []byte) {
	for _, p := range t.packed {
		p.AcceptPacked(job, block)
	}
	if len(t.plain) > 0 {
		EachSample(block, func(s device.Sample) {
			for _, c := range t.plain {
				c.Accept(job, s)
			}
		})
	}
}

// Close closes every child and joins their errors.
func (t *Tee) Close() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
