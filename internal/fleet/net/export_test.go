package net

import (
	"os"

	"repro/internal/analytics"
)

// StreamTelemetry is the body of GET /jobs/{id}/telemetry, for the bus
// tests.
var StreamTelemetry = streamTelemetry

// SSEFrameInterval is the event stream's frame clock, for the cadence
// test.
const SSEFrameInterval = sseFrameInterval

// NewSpoolBus returns a bus that spills into a new file in dir once it
// holds more than BusSpillBytes, for the spill tests.
func NewSpoolBus(total int, dir string) *Bus {
	return newSpoolBus(total, func() (*os.File, error) { return os.CreateTemp(dir, "bus-*.spool") }, nil)
}

// BusHeldBytes reports the telemetry bytes b holds in memory.
func BusHeldBytes(b *Bus) int { return b.heldBytes() }

// The bus's memory bound and spool write buffer, for the spill tests.
const (
	BusSpillBytes = busSpillBytes
	BusWriteBuf   = busWriteBuf
)

// JobStats returns the per-cell stats job id's aggregator holds, nil when
// the job is unknown or has not started its run.
func JobStats(s *JobServer, id string) []analytics.JobStat {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	agg := j.agg
	j.mu.Unlock()
	if agg == nil {
		return nil
	}
	return agg.Stats()
}
