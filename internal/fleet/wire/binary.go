package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/sink"
)

// Binary frame kinds. A binary body is its kind byte, the version byte,
// then the kind's payload. No kind is '{', the first byte of every JSON
// envelope, and 0x00 is no kind either.
const (
	kindSample byte = 0x01
	kindResult byte = 0x02
)

// The binary primitives: float64s as 8 little-endian bytes (bit-exact, so
// NaN payloads, −0 and ±Inf survive), integers as varints, strings as a
// uvarint length then the bytes, and pointers behind a presence byte.

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendPresent(b []byte, present bool) []byte {
	if present {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendSampleHead appends a sample frame's body up to its packed block,
// which follows it on the wire as is.
func appendSampleHead(b []byte, v int, sf *SampleFrame) []byte {
	return binary.AppendVarint(append(b, kindSample, byte(v)), int64(sf.Job))
}

// appendResult appends a result frame's body: the job's identity and its
// run's aggregates. The run's Trace and Records are not carried.
func appendResult(b []byte, v int, rf *ResultFrame) []byte {
	b = append(b, kindResult, byte(v))
	b = binary.AppendVarint(b, int64(rf.Index))
	b = appendString(b, rf.Name)
	b = appendString(b, rf.User.ID)
	b = appendF64(b, rf.User.SkinLimitC)
	b = appendF64(b, rf.User.ScreenLimitC)
	b = binary.AppendVarint(b, rf.SeedUsed)
	b = appendString(b, rf.Err)
	r := rf.Result
	if b = appendPresent(b, r != nil); r == nil {
		return b
	}
	b = appendString(b, r.Workload)
	b = appendString(b, r.Governor)
	b = appendString(b, r.Ctrl)
	b = appendF64(b, r.DurSec)
	for _, v := range [...]float64{r.MaxSkinC, r.MaxScreenC, r.MaxDieC, r.MaxBatteryC, r.AvgFreqMHz, r.AvgUtil,
		r.EnergyJ, r.WorkDone, r.WorkDemanded, r.StartSoC, r.EndSoC} {
		b = appendF64(b, v)
	}
	return b
}

// resultSize estimates appendResult's output from above for the usual
// small varints, so a result encodes in a single allocation.
func resultSize(rf *ResultFrame) int {
	n := 64 + len(rf.Name) + len(rf.User.ID) + len(rf.Err)
	if r := rf.Result; r != nil {
		n += 128 + len(r.Workload) + len(r.Governor) + len(r.Ctrl)
	}
	return n
}

// decoder reads binary primitives off a frame body. The first failure
// latches; later reads return zero values. Every string length is checked
// against the bytes left before anything is allocated, so a body never
// decodes to more memory than a small multiple of its own length.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadFrame, what)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint in " + what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint in " + what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int(what string) int {
	v := d.varint(what)
	if v != int64(int(v)) {
		d.fail(what + " out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float in " + what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(fmt.Sprintf("%s of %d bytes with %d left", what, n, len(d.b)))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) present(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail("truncated presence byte of " + what)
		return false
	}
	p := d.b[0]
	d.b = d.b[1:]
	if p > 1 {
		d.fail(fmt.Sprintf("presence byte %#x of %s", p, what))
	}
	return p == 1
}

// readBinary decodes a binary frame body (buf[0] is not '{').
func readBinary(buf []byte) (*Frame, error) {
	kind := buf[0]
	if kind != kindSample && kind != kindResult {
		return nil, fmt.Errorf("%w: unknown frame kind %#x", ErrBadFrame, kind)
	}
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: binary frame without a version byte", ErrBadFrame)
	}
	if v := int(buf[1]); v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	d := &decoder{b: buf[2:]}
	if kind == kindSample {
		job := d.int("sample frame job")
		if d.err == nil && job < 0 {
			d.fail(fmt.Sprintf("sample frame for job %d", job))
		}
		if d.err != nil {
			return nil, d.err
		}
		if n := len(d.b); n == 0 || n%sink.SampleSize != 0 || n/sink.SampleSize > SampleBatch {
			return nil, fmt.Errorf("%w: sample block of %d bytes (want 1..%d samples of %d bytes)", ErrBadFrame, n, SampleBatch, sink.SampleSize)
		}
		// The block aliases buf, which ReadFrame allocated for this frame
		// alone.
		return &Frame{V: Version, Type: TypeSample, Sample: &SampleFrame{Job: job, Samples: d.b}}, nil
	}
	rf := d.result()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the result", ErrBadFrame, len(d.b))
	}
	return &Frame{V: Version, Type: TypeResult, Result: rf}, nil
}

// result decodes what appendResult encodes.
func (d *decoder) result() *ResultFrame {
	rf := &ResultFrame{
		Index: d.int("result index"),
		Name:  d.str("result name"),
	}
	rf.User.ID = d.str("user ID")
	rf.User.SkinLimitC = d.f64("user skin limit")
	rf.User.ScreenLimitC = d.f64("user screen limit")
	rf.SeedUsed = d.varint("seed")
	rf.Err = d.str("result error")
	if !d.present("run result") {
		return rf
	}
	r := &device.RunResult{
		Workload: d.str("workload"),
		Governor: d.str("governor"),
		Ctrl:     d.str("controller"),
		DurSec:   d.f64("duration"),
	}
	rf.Result = r
	for _, p := range [...]*float64{&r.MaxSkinC, &r.MaxScreenC, &r.MaxDieC, &r.MaxBatteryC, &r.AvgFreqMHz, &r.AvgUtil,
		&r.EnergyJ, &r.WorkDone, &r.WorkDemanded, &r.StartSoC, &r.EndSoC} {
		*p = d.f64("run result")
	}
	return rf
}
