package sink

import (
	"encoding/binary"
	"math"

	"repro/internal/device"
)

// SampleSize is the packed size of one device.Sample: its seven float64
// fields in declaration order, then MaxLevel as an int64, each as 8
// little-endian bytes. The fleet wire's sample frames carry blocks of this
// layout as is, and the job server's telemetry bus stores them unchanged.
const SampleSize = 64

// PackSample appends s to a packed sample block.
func PackSample(block []byte, s device.Sample) []byte {
	for _, v := range [...]float64{s.TimeSec, s.SkinC, s.ScreenC, s.DieC, s.BatteryC, s.FreqMHz, s.Util} {
		block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(block, uint64(int64(s.MaxLevel)))
}

// EachSample calls fn with every sample of a packed block, in order. A
// trailing partial sample is ignored.
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

// PackedSink is the optional interface of a Sink that takes one job's
// telemetry as a packed block (whole samples in the PackSample layout, in
// emission order) instead of sample by sample. A PackedSink may keep the
// block: the caller hands it over and never writes to it again.
type PackedSink interface {
	AcceptPacked(job JobID, block []byte)
}

// AcceptBlock hands a packed block to s: as is when s is a PackedSink,
// decoded sample by sample otherwise.
func AcceptBlock(s Sink, job JobID, block []byte) {
	if p, ok := s.(PackedSink); ok {
		p.AcceptPacked(job, block)
		return
	}
	EachSample(block, func(smp device.Sample) { s.Accept(job, smp) })
}
