package device

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// RunTickContext runs w on the event engine with every tick canonical
// (modeTick): the engine's plumbing, byte-identical to RunContext.
func (p *Phone) RunTickContext(ctx context.Context, w workload.Workload, dur float64) (*RunResult, error) {
	return p.runEvents(ctx, w, dur, modeTick)
}

// RequireIdentical asserts full byte-identity of two results: every
// aggregate, every record field, every trace cell.
func RequireIdentical(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	requireIdentical(t, label, want, got)
}
