// Package wire is the serialization layer of the networked fleet:
// versioned codecs for the job contract (fleet.JobSpec in,
// fleet.JobResult and telemetry samples out) carried as length-prefixed
// frames over a worker daemon's TCP connection.
//
// In memory every frame is a Frame: a version, a type and exactly one
// payload field matching the type. On the wire the frames that carry
// bulk data are binary and the rest are JSON:
//
//   - Sample and result frames, worker → coordinator, are binary bodies:
//     a kind byte (never '{'), the version byte, then the payload. A
//     sample frame is a varint job index followed by 1..SampleBatch
//     samples of that job packed by sink.PackSample. A result frame
//     encodes a ResultFrame field by field: float64s as 8 little-endian
//     bytes (bit-exact), integers as varints, strings length-prefixed and
//     pointers behind presence bytes. It carries the run's aggregates,
//     never its Trace or Records; telemetry crosses in sample frames.
//   - Hello, shard, done, heartbeat, cancel and error frames are JSON
//     envelopes, {"v":8,"type":...} plus the type's payload field.
//
// A shard request carries each distinct device configuration once, in
// a table its jobs name by index (ShardRequest.SetJobs builds it,
// ShardRequest.Spec resolves it), so jobs of one configuration share one
// *device.Config on the worker.
//
// The predictor is content-addressed: a shard request names it by the
// SHA-256 of its document (PredictorID) and carries the document only
// when the worker does not hold it yet — a worker's hello lists the IDs
// it holds. Readers reject unknown versions, unknown types and kinds,
// oversized frames, truncated streams, counts the frame cannot hold,
// trailing bytes and malformed predictor IDs with typed errors; the
// coordinator turns those into per-job errors instead of batch failures.
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
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sink"
	"repro/internal/users"
)

// Version is the protocol version this package reads and writes. A worker
// and coordinator from the same build always agree; mixed builds fail fast
// with ErrVersion instead of mis-decoding — a daemon's hello frame already
// carries it, so a coordinator refuses a worker of another version before
// sending it work. Version 1 sent one JSON frame per sample; version 2
// carried the predictor in every shard request; version 3 carried it in
// the first request on each connection and let later ones say
// same_predictor. Version 4 named it by content (ShardRequest.PredictorID,
// HelloFrame.Predictors). Version 5 sends sample and result frames as
// binary bodies instead of JSON envelopes; hello stays JSON, so v4 and v5
// builds still refuse each other at the handshake. Version 6 drops the
// shard request's engine code (every worker runs the one production
// engine): a v5 coordinator's "event" field would fail the strict decoder
// mid-request, so the bump makes v5 and v6 builds refuse each other at
// hello instead. Version 7 carries each distinct device configuration
// once per shard request, in ShardRequest.Devices, and a job names its
// entry by index: a v6 job's inline "device" object fails the strict
// decoder, so v6 and v7 builds refuse each other at hello. Version 8
// drops the result frame's trace and record sections and the shard job's
// trace_free field (workers always run trace-free): a v7 traced result
// would mis-decode as aggregates, so v7 and v8 builds refuse each other
// at hello.
const Version = 8

// MaxPredictors bounds the decoded predictors a worker keeps, and so the
// IDs its hello frame may list. A worker serves one predictor per
// concurrent run.
const MaxPredictors = 4

// SampleBatch is the most samples one sample frame carries. Workers flush
// a job's batch when it fills and again right before the job's result
// frame, so a frame never exceeds SampleBatch × sink.SampleSize bytes of
// telemetry however long the job runs.
const SampleBatch = 256

// SampleSize, PackSample and EachSample alias the sink package's packed
// sample layout, which sample frames carry as is. Program code uses the
// sink names; the aliases keep the wire format's tests reading in wire
// terms.
const SampleSize = sink.SampleSize

// MaxFrame bounds a single frame's payload (64 MiB). A cold shard
// request's predictor document (~350 KB) is the largest frame in
// practice; anything near the cap indicates a corrupt length prefix, not
// a real payload.
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
	// ErrDeviceIndex marks a shard job naming a device outside its
	// request's device table. It fails that job alone, not the frame.
	ErrDeviceIndex = errors.New("wire: device index outside the shard request's device table")
)

// Frame is the versioned envelope every message travels in. Exactly one
// payload field is set, matching Type. Sample and result frames travel as
// binary bodies, never inside a JSON envelope.
type Frame struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Shard  *ShardRequest `json:"shard,omitempty"`
	Sample *SampleFrame  `json:"-"`
	Result *ResultFrame  `json:"-"`
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
	// Predictors lists the IDs (see ShardRequest.PredictorID) of the
	// predictors the worker holds, at most MaxPredictors. The worker keeps
	// every listed predictor for the life of the connection, so a request
	// on it may name one without carrying its document.
	Predictors []string `json:"predictors,omitempty"`
}

// ShardRequest is the coordinator's single message to a worker: the
// shard's job specs (seeds already resolved, indices global) with their
// device table, the in-process pool width, the predictor backing "usta"
// specs (by ID, with its document when the worker may not hold it), and
// whether to stream telemetry samples back.
type ShardRequest struct {
	// Devices holds every distinct device configuration the jobs run on,
	// once; a job names its entry by index (ShardJob.Device).
	Devices []device.Config `json:"devices,omitempty"`
	Jobs    []ShardJob      `json:"jobs"`
	// Workers is the worker daemon's in-process pool width (<= 0:
	// GOMAXPROCS, via fleet.NormalizeWorkers).
	Workers int `json:"workers,omitempty"`
	// PredictorID names the request's predictor: the lowercase-hex
	// SHA-256 of its document's bytes exactly as they cross the wire
	// (fleet.PredictorID). Empty: no predictor.
	PredictorID string `json:"predictor_id,omitempty"`
	// Predictor is the document PredictorID names (a core.SavePredictor
	// document; see DecodePredictor), sent only when the worker did not
	// list the ID in its hello and the connection has not carried it yet.
	// A worker checks that the bytes hash to PredictorID before it decodes
	// them, and fails a request naming an ID it does not hold on the
	// connection with an error frame. WriteFrame copies the document
	// verbatim, so it must be valid JSON, as EncodePredictor's is.
	Predictor json.RawMessage `json:"predictor,omitempty"`
	// WantSamples asks the worker to forward every telemetry sample, in
	// TypeSample frames tagged with the spec's global index.
	WantSamples bool `json:"want_samples,omitempty"`
}

// ShardJob is one job of a shard request: its spec, with the device
// configuration named by its index in ShardRequest.Devices. The embedded
// JobSpec.Device is not encoded.
type ShardJob struct {
	fleet.JobSpec
	// Device is the index of the job's configuration in the request's
	// device table (nil: device.DefaultConfig).
	Device *int `json:"device,omitempty"`
}

// SetJobs fills the request's jobs from specs and its device table with
// the configurations they run on, each distinct value once: specs sharing
// a pointer share an entry without a comparison, and the rest are
// compared by value.
func (r *ShardRequest) SetJobs(specs []fleet.JobSpec) {
	r.Devices = nil
	r.Jobs = make([]ShardJob, len(specs))
	idx := make([]int, len(specs))
	entry := map[*device.Config]int{}
	for i, spec := range specs {
		d := spec.Device
		spec.Device = nil
		r.Jobs[i].JobSpec = spec
		if d == nil {
			continue
		}
		k, ok := entry[d]
		if !ok {
			k = slices.IndexFunc(r.Devices, func(c device.Config) bool { return reflect.DeepEqual(c, *d) })
			if k < 0 {
				k = len(r.Devices)
				r.Devices = append(r.Devices, *d)
			}
			entry[d] = k
		}
		idx[i] = k
		r.Jobs[i].Device = &idx[i]
	}
}

// Spec returns job i's spec with its device resolved to the request's
// table entry, so jobs naming one entry share one *device.Config — the
// key of a worker's phone pool. A job naming an entry outside the table
// returns its spec without a device and an error wrapping ErrDeviceIndex.
func (r *ShardRequest) Spec(i int) (fleet.JobSpec, error) {
	j := &r.Jobs[i]
	spec := j.JobSpec
	spec.Device = nil
	if j.Device != nil {
		k := *j.Device
		if k < 0 || k >= len(r.Devices) {
			return spec, fmt.Errorf("%w: job spec %d names device %d of %d", ErrDeviceIndex, spec.Index, k, len(r.Devices))
		}
		spec.Device = &r.Devices[k]
	}
	return spec, nil
}

// SampleFrame is a batch of one job's telemetry crossing the process
// boundary, in emission order.
type SampleFrame struct {
	// Job is the global job index (fleet.JobSpec.Index), >= 0.
	Job int
	// Samples holds 1..SampleBatch samples packed by sink.PackSample,
	// bit-exact. It travels as the tail of the frame body, as is; a frame
	// ReadFrame returns shares it with nothing else.
	Samples []byte
}

// PackSample is sink.PackSample.
func PackSample(block []byte, s device.Sample) []byte { return sink.PackSample(block, s) }

// EachSample is sink.EachSample. A trailing partial sample is ignored;
// ReadFrame rejects frames carrying one.
func EachSample(block []byte, fn func(device.Sample)) { sink.EachSample(block, fn) }

// ResultFrame is a fleet.JobResult in serializable form: the error
// flattened to its message, everything else carried structurally
// (device.RunResult is plain exported data) except the run's Trace and
// Records, which the codec drops. The binary codec (appendResult) names
// every other field of this type and of the types it reaches;
// TestResultCodecCoversEveryField fails when one is added without codec
// support.
type ResultFrame struct {
	Index    int
	Name     string
	User     users.User
	SeedUsed int64
	Result   *device.RunResult
	Err      string
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

// Decode converts the wire form back to a fleet.JobResult. Flattened
// errors come back as opaque error values (error identity does not
// survive the boundary — the coordinator re-marks cancellations itself).
func (rf *ResultFrame) Decode() fleet.JobResult {
	r := fleet.JobResult{
		Index:    rf.Index,
		Name:     rf.Name,
		User:     rf.User,
		SeedUsed: rf.SeedUsed,
		Result:   rf.Result,
	}
	if rf.Err != "" {
		r.Err = errors.New(rf.Err)
	}
	return r
}

// WriteFrame writes one frame as a 4-byte big-endian length followed by
// its body — binary for sample and result frames, JSON for the rest — in
// one writev on a TCP connection. A sample block is written from the
// caller's buffer without a copy. Writers must serialize calls on a
// shared stream.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [4]byte
	bufs := net.Buffers{hdr[:]}
	switch f.Type {
	case TypeSample, TypeResult:
		if f.V < 0 || f.V > math.MaxUint8 {
			return fmt.Errorf("wire: encode %s frame: version %d does not fit the version byte", f.Type, f.V)
		}
		switch {
		case f.Type == TypeSample && f.Sample != nil:
			bufs = append(bufs, appendSampleHead(make([]byte, 0, 2+binary.MaxVarintLen64), f.V, f.Sample), f.Sample.Samples)
		case f.Type == TypeResult && f.Result != nil:
			bufs = append(bufs, appendResult(make([]byte, 0, resultSize(f.Result)), f.V, f.Result))
		default:
			return fmt.Errorf("wire: encode %s frame: missing or invalid payload", f.Type)
		}
	default:
		b, err := encodeFrame(f)
		if err != nil {
			return fmt.Errorf("wire: encode %s frame: %w", f.Type, err)
		}
		bufs = append(bufs, b)
	}
	n := 0
	for _, b := range bufs[1:] {
		n += len(b)
	}
	if n > MaxFrame {
		return fmt.Errorf("%w: %s frame is %d bytes", ErrFrameTooLarge, f.Type, n)
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	_, err := bufs.WriteTo(w)
	return err
}

// encodeFrame is json.Marshal(f), except that a shard request's predictor
// document is copied in as is: json.Marshal would re-validate and
// re-compact the whole document, which is most of a cold request's
// encoding time.
func encodeFrame(f *Frame) ([]byte, error) {
	if f.Shard == nil || len(f.Shard.Predictor) == 0 {
		return json.Marshal(f)
	}
	shard := *f.Shard
	doc := shard.Predictor
	shard.Predictor = nil
	env := *f
	env.Shard = nil
	eb, err := json.Marshal(&env)
	if err != nil {
		return nil, err
	}
	sb, err := json.Marshal(&shard)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(eb)+len(sb)+len(doc)+len(`,"shard":,"predictor":}}`))
	b = append(append(b, eb[:len(eb)-1]...), `,"shard":`...)
	b = append(append(b, sb[:len(sb)-1]...), `,"predictor":`...)
	return append(append(b, doc...), "}}"...), nil
}

// ReadFrame reads and validates one frame. A clean end of stream
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
	if n > 0 && buf[0] != '{' {
		return readBinary(buf)
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
		if len(f.Shard.Predictor) > 0 && f.Shard.PredictorID == "" {
			return nil, fmt.Errorf("%w: shard frame with a predictor but no predictor_id", ErrBadFrame)
		}
		if id := f.Shard.PredictorID; id != "" && !validID(id) {
			return nil, fmt.Errorf("%w: shard frame with predictor_id %q", ErrBadFrame, id)
		}
	case TypeSample, TypeResult:
		return nil, fmt.Errorf("%w: %s frame in a JSON envelope (%s frames are binary)", ErrBadFrame, f.Type, f.Type)
	case TypeDone, TypeHeartbeat, TypeCancel:
	case TypeHello:
		if f.Hello == nil {
			return nil, fmt.Errorf("%w: hello frame without payload", ErrBadFrame)
		}
		if f.Hello.Capacity < 1 {
			return nil, fmt.Errorf("%w: hello frame with capacity %d", ErrBadFrame, f.Hello.Capacity)
		}
		if n := len(f.Hello.Predictors); n > MaxPredictors {
			return nil, fmt.Errorf("%w: hello frame listing %d predictors (at most %d)", ErrBadFrame, n, MaxPredictors)
		}
		for _, id := range f.Hello.Predictors {
			if !validID(id) {
				return nil, fmt.Errorf("%w: hello frame listing predictor %q", ErrBadFrame, id)
			}
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

// validID reports whether id has the form of a predictor ID: 64
// lowercase hex digits.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodePredictor serializes a trained predictor for a ShardRequest (nil
// predictors encode as nil). The document is compact, without
// core.SavePredictor's trailing newline, and its ID is the SHA-256 of
// exactly the bytes a frame carries.
func EncodePredictor(p *core.Predictor) (*fleet.EncodedPredictor, error) {
	if p == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := core.SavePredictor(&buf, p); err != nil {
		return nil, fmt.Errorf("wire: encode predictor: %w", err)
	}
	return fleet.NewEncodedPredictor(buf.Bytes())
}

// DecodePredictor loads a ShardRequest predictor document (empty input
// decodes as nil).
func DecodePredictor(raw json.RawMessage) (*core.Predictor, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	p, err := core.LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("wire: decode predictor: %w", err)
	}
	return p, nil
}
