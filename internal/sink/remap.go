package sink

import "repro/internal/device"

// Remap translates job IDs through a table before forwarding to the next
// sink: sample for subset job i arrives at next tagged toOuter[i]. It is
// the adapter that lets a partial re-run of a larger grid — a
// crash-recovery resume dispatching only unfinished cells — feed
// consumers (telemetry buses, live aggregators, violation sinks) that are
// sized and indexed for the full grid. Samples outside the table are
// dropped, and packed blocks pass through as blocks. Remap adds no
// synchronization of its own; next sees the same concurrency Accept sees.
type Remap struct {
	next    Sink
	toOuter []int
}

// NewRemap wraps next with the subset→outer index table.
func NewRemap(next Sink, toOuter []int) *Remap {
	return &Remap{next: next, toOuter: toOuter}
}

// Accept forwards the sample under its outer job ID.
func (r *Remap) Accept(job JobID, s device.Sample) {
	i := int(job)
	if i < 0 || i >= len(r.toOuter) {
		return
	}
	r.next.Accept(JobID(r.toOuter[i]), s)
}

// AcceptPacked implements PackedSink: the block goes on under its outer
// job ID, as is when next takes blocks.
func (r *Remap) AcceptPacked(job JobID, block []byte) {
	i := int(job)
	if i < 0 || i >= len(r.toOuter) {
		return
	}
	AcceptBlock(r.next, JobID(r.toOuter[i]), block)
}

// Close closes nothing: the wrapped sink's owner closes it.
func (r *Remap) Close() error { return nil }
