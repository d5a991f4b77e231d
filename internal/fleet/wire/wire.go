// Package wire is the serialization layer of the sharded fleet: versioned
// codecs for the job contract (fleet.JobSpec in, fleet.JobResult and
// telemetry samples out) carried as length-prefixed JSON frames over a
// byte stream — the stdin/stdout pipes of a worker subprocess today, a
// socket when the fleet grows multi-host.
//
// Every frame is a Frame envelope: {"v":3,"type":...} plus exactly one
// payload field matching the type. Telemetry travels in batches: a sample
// frame carries up to SampleBatch samples of one job as a packed binary
// block (see PackSample). Readers reject unknown versions, unknown types,
// oversized frames and truncated streams with descriptive errors; the
// shard coordinator turns those into per-job errors instead of batch
// failures.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/users"
	"repro/internal/workload"
)

// Version is the protocol version this package reads and writes. A worker
// and coordinator from the same build always agree; mixed builds fail fast
// with ErrVersion instead of mis-decoding — a daemon's hello frame already
// carries it, so a coordinator refuses a worker of another version before
// sending it work. Version 1 sent one JSON frame per sample; version 2
// carried the predictor in every shard request (see
// ShardRequest.SamePredictor).
const Version = 3

// SampleBatch is the most samples one sample frame carries. Workers flush
// a job's batch when it fills and again right before the job's result
// frame, so a frame never exceeds SampleBatch × SampleSize bytes of
// telemetry however long the job runs.
const SampleBatch = 256

// SampleSize is the packed size of one device.Sample: its seven float64
// fields in declaration order, then MaxLevel as an int64, each as 8
// little-endian bytes.
const SampleSize = 64

// MaxFrame bounds a single frame's payload (64 MiB). Traced results of
// very long runs are the largest frames in practice (a few MB); anything
// near the cap indicates a corrupt length prefix, not a real payload.
const MaxFrame = 64 << 20

// Frame types.
const (
	// TypeShard carries a ShardRequest, coordinator → worker.
	TypeShard = "shard"
	// TypeSample carries a batch of one job's telemetry samples, worker →
	// coordinator.
	TypeSample = "sample"
	// TypeResult carries one finished job, worker → coordinator.
	TypeResult = "result"
	// TypeDone marks the end of a worker's stream (of the current shard, on
	// a long-lived daemon connection that serves several).
	TypeDone = "done"
	// TypeError aborts the shard with a worker-side failure.
	TypeError = "error"
	// TypeHello is a worker daemon's handshake, sent once per accepted
	// connection before anything else: protocol version (the envelope's V)
	// plus the daemon's shard capacity (internal/fleet/net).
	TypeHello = "hello"
	// TypeHeartbeat is a worker's liveness pulse, emitted periodically
	// while a shard executes so the coordinator's read deadline can tell a
	// slow shard from a dead worker. It carries no payload.
	TypeHeartbeat = "heartbeat"
	// TypeCancel asks the worker to abandon the in-flight shard,
	// coordinator → worker. It carries no payload.
	TypeCancel = "cancel"
)

// Sentinel errors for malformed streams.
var (
	// ErrVersion marks a frame from an incompatible protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge marks a length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame marks an undecodable or ill-formed frame.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Frame is the versioned envelope every message travels in. Exactly one
// payload field is set, matching Type.
type Frame struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Shard  *ShardRequest `json:"shard,omitempty"`
	Sample *SampleFrame  `json:"sample,omitempty"`
	Result *ResultFrame  `json:"result,omitempty"`
	Hello  *HelloFrame   `json:"hello,omitempty"`
	Err    string        `json:"err,omitempty"`
}

// HelloFrame is a worker daemon's self-description: the protocol version it
// speaks (redundant with the envelope's V, but recorded explicitly so a
// future multi-version coordinator can negotiate) and how many shards it is
// willing to execute concurrently — the coordinator's per-worker in-flight
// cap.
type HelloFrame struct {
	// Proto is the wire protocol version the daemon speaks.
	Proto int `json:"proto"`
	// Capacity is the daemon's concurrent-shard limit (>= 1).
	Capacity int `json:"capacity"`
}

// ShardRequest is the coordinator's single message to a worker: the
// shard's job specs (seeds already resolved, indices global), the
// in-process pool width, an optional serialized predictor backing "usta"
// specs, and whether to stream telemetry samples back.
type ShardRequest struct {
	Jobs []fleet.JobSpec `json:"jobs"`
	// Workers is the worker process's in-process pool width (<= 0:
	// GOMAXPROCS, via fleet.NormalizeWorkers).
	Workers int `json:"workers,omitempty"`
	// Predictor is a core.SavePredictor document (see DecodePredictor).
	Predictor json.RawMessage `json:"predictor,omitempty"`
	// SamePredictor asks the worker to reuse the predictor of the last
	// request on this connection that carried one, in place of Predictor
	// (which must then be empty). One connection carries only one run's
	// requests, so a coordinator ships the predictor in its first request
	// on each connection and sets SamePredictor on the rest; a redialed
	// connection starts over. A worker with no predictor on the
	// connection fails the request with an error frame.
	SamePredictor bool `json:"same_predictor,omitempty"`
	// WantSamples asks the worker to forward every telemetry sample, in
	// TypeSample frames tagged with the spec's global index.
	WantSamples bool `json:"want_samples,omitempty"`
	// Event selects the worker's stepping engine as a stable
	// device.EventMode code ((EventMode).Code: off 0, tick 1, oracle 2,
	// jump 3), never the in-memory value, so an omitted field is the
	// plain fixed-tick loop. Carried as an int so the wire package stays
	// free of behavioral coupling; the worker decodes it with
	// device.EventModeOfCode (an unknown code fails the request with an
	// error frame) and applies it to its fleet config, which is what
	// keeps a sharded event run equal to a local run under the same mode.
	Event int `json:"event,omitempty"`
}

// SampleFrame is a batch of one job's telemetry crossing the process
// boundary, in emission order.
type SampleFrame struct {
	// Job is the global job index (fleet.JobSpec.Index).
	Job int `json:"job"`
	// Samples holds 1..SampleBatch samples packed by PackSample, bit-exact
	// (base64 inside the JSON envelope).
	Samples []byte `json:"samples"`
}

// PackSample appends s to a packed sample block.
func PackSample(block []byte, s device.Sample) []byte {
	for _, v := range [...]float64{s.TimeSec, s.SkinC, s.ScreenC, s.DieC, s.BatteryC, s.FreqMHz, s.Util} {
		block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(block, uint64(int64(s.MaxLevel)))
}

// EachSample calls fn with every sample of a packed block, in order. A
// trailing partial sample is ignored; ReadFrame rejects frames carrying one.
func EachSample(block []byte, fn func(device.Sample)) {
	f := func(b []byte, i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	for ; len(block) >= SampleSize; block = block[SampleSize:] {
		fn(device.Sample{
			TimeSec: f(block, 0), SkinC: f(block, 1), ScreenC: f(block, 2), DieC: f(block, 3),
			BatteryC: f(block, 4), FreqMHz: f(block, 5), Util: f(block, 6),
			MaxLevel: int(int64(binary.LittleEndian.Uint64(block[56:]))),
		})
	}
}

// ResultFrame is a fleet.JobResult in serializable form: the error
// flattened to its message, everything else carried structurally
// (device.RunResult, including any retained trace and records, is plain
// exported data).
type ResultFrame struct {
	Index    int               `json:"index"`
	Name     string            `json:"name,omitempty"`
	User     users.User        `json:"user,omitempty"`
	SeedUsed int64             `json:"seed_used,omitempty"`
	Result   *device.RunResult `json:"result,omitempty"`
	Err      string            `json:"err,omitempty"`
}

// EncodeResult converts a job result to its wire form.
func EncodeResult(r fleet.JobResult) *ResultFrame {
	rf := &ResultFrame{
		Index:    r.Index,
		Name:     r.Name,
		User:     r.User,
		SeedUsed: r.SeedUsed,
		Result:   r.Result,
	}
	if r.Err != nil {
		rf.Err = r.Err.Error()
	}
	return rf
}

// Decode converts the wire form back to a fleet.JobResult. Retained traces
// are reindexed so Lookup works on the receiving side; flattened errors
// come back as opaque error values (error identity does not survive the
// boundary — the coordinator re-marks cancellations itself).
func (rf *ResultFrame) Decode() fleet.JobResult {
	r := fleet.JobResult{
		Index:    rf.Index,
		Name:     rf.Name,
		User:     rf.User,
		SeedUsed: rf.SeedUsed,
		Result:   rf.Result,
	}
	if r.Result != nil && r.Result.Trace != nil {
		r.Result.Trace.Reindex()
	}
	if rf.Err != "" {
		r.Err = errors.New(rf.Err)
	}
	return r
}

// WriteFrame writes one envelope as a 4-byte big-endian length followed by
// its JSON encoding — one writev on a TCP connection. Writers must
// serialize calls on a shared stream.
func WriteFrame(w io.Writer, f *Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("wire: encode %s frame: %w", f.Type, err)
	}
	if len(b) > MaxFrame {
		return fmt.Errorf("%w: %s frame is %d bytes", ErrFrameTooLarge, f.Type, len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	bufs := net.Buffers{hdr[:], b}
	_, err = bufs.WriteTo(w)
	return err
}

// ReadFrame reads and validates one envelope. A clean end of stream
// returns io.EOF; a stream cut mid-frame returns io.ErrUnexpectedEOF;
// ill-formed frames return errors wrapping ErrBadFrame, ErrVersion or
// ErrFrameTooLarge.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF for a clean end of stream
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	// Grow the buffer as bytes arrive rather than trusting the prefix: a
	// peer that promises MaxFrame and sends little gets a buffer at most
	// twice what it sent.
	buf := make([]byte, min(int(n), 64<<10))
	for off := 0; ; {
		m, err := io.ReadFull(r, buf[off:])
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, io.ErrUnexpectedEOF // cut mid-frame, never clean
			}
			return nil, err
		}
		if off += m; off == int(n) {
			break
		}
		buf = append(buf, make([]byte, min(int(n)-off, off))...)
	}
	// One strict decode per frame. Only a frame it refuses needs the
	// lenient version probe: a newer build's frame may carry envelope
	// fields this build does not know, and that must read as a version
	// mismatch, not a malformed frame.
	var f Frame
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		var ver struct {
			V int `json:"v"`
		}
		if json.Unmarshal(buf, &ver) == nil && ver.V != Version {
			return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, ver.V, Version)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the envelope", ErrBadFrame)
	}
	if f.V != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, f.V, Version)
	}
	switch f.Type {
	case TypeShard:
		if f.Shard == nil {
			return nil, fmt.Errorf("%w: shard frame without payload", ErrBadFrame)
		}
		if f.Shard.SamePredictor && len(f.Shard.Predictor) > 0 {
			return nil, fmt.Errorf("%w: shard frame with both a predictor and same_predictor", ErrBadFrame)
		}
	case TypeSample:
		if f.Sample == nil {
			return nil, fmt.Errorf("%w: sample frame without payload", ErrBadFrame)
		}
		if f.Sample.Job < 0 {
			return nil, fmt.Errorf("%w: sample frame for job %d", ErrBadFrame, f.Sample.Job)
		}
		if n := len(f.Sample.Samples); n == 0 || n%SampleSize != 0 || n/SampleSize > SampleBatch {
			return nil, fmt.Errorf("%w: sample block of %d bytes (want 1..%d samples of %d bytes)", ErrBadFrame, n, SampleBatch, SampleSize)
		}
	case TypeResult:
		if f.Result == nil {
			return nil, fmt.Errorf("%w: result frame without payload", ErrBadFrame)
		}
	case TypeDone, TypeHeartbeat, TypeCancel:
	case TypeHello:
		if f.Hello == nil {
			return nil, fmt.Errorf("%w: hello frame without payload", ErrBadFrame)
		}
		if f.Hello.Capacity < 1 {
			return nil, fmt.Errorf("%w: hello frame with capacity %d", ErrBadFrame, f.Hello.Capacity)
		}
	case TypeError:
		if f.Err == "" {
			return nil, fmt.Errorf("%w: error frame without message", ErrBadFrame)
		}
	default:
		return nil, fmt.Errorf("%w: unknown frame type %q", ErrBadFrame, f.Type)
	}
	return &f, nil
}

// EncodePredictor serializes a trained predictor for a ShardRequest (nil
// predictors encode as nil).
func EncodePredictor(p *core.Predictor) (json.RawMessage, error) {
	if p == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := core.SavePredictor(&buf, p); err != nil {
		return nil, fmt.Errorf("wire: encode predictor: %w", err)
	}
	return buf.Bytes(), nil
}

// decodedMax bounds the memo of decoded predictors. A worker serves one
// predictor per concurrent run, and a run's shards all carry the same
// document.
const decodedMax = 4

// decoded is the process-wide memo of decoded predictor documents, oldest
// first.
var decoded struct {
	sync.Mutex
	entries []decodedEntry
}

type decodedEntry struct {
	doc  []byte
	pred *core.Predictor
}

// DecodePredictor loads a ShardRequest predictor (empty input decodes as
// nil). Decoding is memoized by document: every shard of a run gets the
// same *core.Predictor, which must be treated as read-only (predicting
// never mutates it). Undecodable documents are not memoized.
func DecodePredictor(raw json.RawMessage) (*core.Predictor, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	decoded.Lock()
	for _, e := range decoded.entries {
		if bytes.Equal(e.doc, raw) {
			decoded.Unlock()
			return e.pred, nil
		}
	}
	decoded.Unlock()
	p, err := core.LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("wire: decode predictor: %w", err)
	}
	decoded.Lock()
	defer decoded.Unlock()
	for _, e := range decoded.entries {
		if bytes.Equal(e.doc, raw) {
			return e.pred, nil // a concurrent miss stored it first
		}
	}
	decoded.entries = append(decoded.entries, decodedEntry{doc: bytes.Clone(raw), pred: p})
	if n := len(decoded.entries); n > decodedMax {
		decoded.entries = append(decoded.entries[:0], decoded.entries[n-decodedMax:]...)
	}
	return p, nil
}

// Materialize rebuilds a runnable fleet.Job from its serializable spec,
// resolving the workload by name, the governor against the device's OPP
// table, and a "usta" controller against the shard's predictor. It mirrors
// exactly what the scenario expander wires into the in-process Job, so a
// worker-built job runs the same physics the local runner would.
func Materialize(spec fleet.JobSpec, pred *core.Predictor) (fleet.Job, error) {
	if err := spec.Validate(); err != nil {
		return fleet.Job{}, err
	}
	wl := workload.ByName(spec.Workload.Name, spec.Workload.Seed)
	job := fleet.Job{
		Name:        spec.Name,
		User:        spec.User,
		Workload:    wl,
		Device:      spec.Device,
		DurSec:      spec.DurSec,
		DeadlineSec: spec.DeadlineSec,
		TraceFree:   spec.TraceFree,
		Seed:        spec.Seed,
	}
	if spec.Governor != "" {
		devCfg := device.DefaultConfig()
		if spec.Device != nil {
			devCfg = *spec.Device
		}
		freqs := make([]float64, len(devCfg.SoC.OPPs))
		for i, o := range devCfg.SoC.OPPs {
			freqs[i] = o.FreqMHz
		}
		factory, err := fleet.GovernorFactory(spec.Governor, freqs)
		if err != nil {
			return fleet.Job{}, fmt.Errorf("fleet: job spec %d: %w", spec.Index, err)
		}
		job.Governor = factory
	}
	if spec.Controller == "usta" {
		if pred == nil {
			return fleet.Job{}, fmt.Errorf("fleet: job spec %d uses a usta controller but the shard request carries no predictor", spec.Index)
		}
		limit := spec.LimitC
		job.Controller = func(users.User) device.Controller {
			return core.NewUSTA(pred, limit)
		}
	}
	return job, nil
}
