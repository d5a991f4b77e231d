package net

import (
	"context"
	"sync"

	"repro/internal/fleet"
)

// statsTracker is the mutable, locked store behind one run's
// fleet.RunStats.
type statsTracker struct {
	mu           sync.Mutex
	order        []string
	hosts        map[string]*fleet.HostStats
	fallbackUsed bool
	fallbackJobs int
}

func newStatsTracker(hosts []string) *statsTracker {
	t := &statsTracker{order: hosts, hosts: make(map[string]*fleet.HostStats, len(hosts))}
	for _, a := range hosts {
		t.hosts[a] = &fleet.HostStats{Addr: a}
	}
	return t
}

func (t *statsTracker) update(addr string, fn func(*fleet.HostStats)) {
	t.mu.Lock()
	if h, ok := t.hosts[addr]; ok {
		fn(h)
	}
	t.mu.Unlock()
}

func (t *statsTracker) itemDone(addr string) {
	t.mu.Lock()
	if h, ok := t.hosts[addr]; ok {
		h.ItemsCompleted++
	}
	t.mu.Unlock()
}

func (t *statsTracker) fallback(jobs int) {
	t.mu.Lock()
	t.fallbackUsed = true
	t.fallbackJobs = jobs
	t.mu.Unlock()
}

func (t *statsTracker) snapshot() fleet.RunStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := fleet.RunStats{
		Hosts:        make([]fleet.HostStats, 0, len(t.order)),
		FallbackUsed: t.fallbackUsed,
		FallbackJobs: t.fallbackJobs,
	}
	for _, a := range t.order {
		if h, ok := t.hosts[a]; ok {
			s.Hosts = append(s.Hosts, *h)
		}
	}
	return s
}

// trackedRunner runs a Runner against a tracker its owner keeps, so the
// owner can snapshot the run while it is in flight: the job server's
// live /fleet row and event-stream view of one job.
type trackedRunner struct {
	r  *Runner
	tk *statsTracker
}

func (t trackedRunner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) ([]fleet.JobResult, fleet.RunStats) {
	return t.r.run(ctx, cfg, jobs, t.tk), t.tk.snapshot()
}
