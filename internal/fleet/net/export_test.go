package net

import "repro/internal/fleet"

// StreamTelemetry is the body of GET /jobs/{id}/telemetry, for the bus
// tests.
var StreamTelemetry = streamTelemetry

// Tracked returns a runner that runs r and a live view of that runner's
// stats, which a test may poll while the run is in flight, the way the job
// server reads a job's tracker.
func Tracked(r *Runner) (fleet.Runner, func() fleet.RunStats) {
	tk := newStatsTracker(r.Hosts)
	return trackedRunner{r: r, tk: tk}, tk.snapshot
}

// SSEFrameInterval is the event stream's frame clock, for the cadence
// test.
const SSEFrameInterval = sseFrameInterval
