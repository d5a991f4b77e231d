// Package sink is the streaming back door of the fleet engine: a Sink
// receives every telemetry Sample a run emits, tagged with the job that
// produced it, so population-scale sweeps can stream results to disk (or an
// aggregator) with O(1) memory instead of buffering RunResult.Trace per job.
//
// The package holds the shapes programs run: the JSONL appender behind
// `ustasim -jsonl` and the job server's telemetry endpoint (AppendJSONL),
// a fan-out Tee, a job-ID Remap for partial re-runs, Func for a plain
// function, and the packed 64-byte sample layout the fleet wire and the
// telemetry bus carry (PackedSink). The JSONL appender is safe for
// concurrent Accept calls — the fleet delivers samples from worker
// goroutines — and latches its first I/O error for Close to report.
//
// A Sink is wired into a single run via fleet.WithSink, or into a whole
// batch via fleet.Config.Sink.
package sink

import (
	"bufio"
	"errors"
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
