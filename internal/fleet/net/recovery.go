package net

import (
	"fmt"

	"repro/internal/fleet/durable"
	"repro/internal/scenario"
)

// Recover replays the state store and restores every journaled job before
// the server starts answering requests. Terminal jobs (done, failed,
// cancelled by a user) come back queryable with their final status and
// comfort tables; non-terminal jobs — interrupted by a crash or a drain —
// relaunch immediately and resume from their completed-cell ledger,
// re-running only unfinished cells. The ID counter is seeded past every
// recovered ID so a restarted server never reissues one.
//
// Call once, after configuring the server and before serving; it is a
// no-op without a Store.
func (s *JobServer) Recover() error {
	if s.Store == nil {
		return nil
	}
	recs, err := s.Store.Recover()
	if err != nil {
		return err
	}
	for i := range recs {
		rec := &recs[i]
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if rec.Log != nil {
				rec.Log.Close()
			}
			return fmt.Errorf("net: recover on closed server")
		}
		if n, ok := durable.JobSeq(rec.ID); ok && n > s.seq {
			s.seq = n
		}
		if _, dup := s.jobs[rec.ID]; dup {
			s.mu.Unlock()
			if rec.Log != nil {
				rec.Log.Close()
			}
			continue
		}
		j := s.restoreJob(rec)
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		s.mu.Unlock()
		s.logf("net: job %s: recovered (%s, %d cells ledgered)", rec.ID, j.snapshot().Status, len(rec.Done))
	}
	return nil
}

// restoreJob builds the serverJob for one replayed log and, for
// non-terminal jobs, relaunches execution. Caller holds s.mu.
func (s *JobServer) restoreJob(rec *durable.RecoveredJob) *serverJob {
	terminal := func(status, errMsg string, st *durable.Status) *serverJob {
		j := &serverJob{id: rec.ID, status: status, errMsg: errMsg,
			cancel:   func() {},
			busReady: make(chan struct{})}
		if st != nil {
			j.comfort = st.Comfort
			j.done = len(rec.Done)
			j.total = len(rec.Cells)
			if st.Status == "done" {
				// A clean finish completed every cell even if ledger batching
				// lost trailing entries.
				j.done = len(rec.Cells)
			}
		}
		if rec.Sub != nil {
			j.deadlineSec = rec.Sub.DeadlineSec
		}
		close(j.busReady) // no bus: telemetry answers 409, status works
		return j
	}

	if rec.Err != nil {
		// Unreadable log: surface the job as failed instead of silently
		// dropping it; the file stays on disk for inspection.
		j := terminal("failed", fmt.Sprintf("state log unreadable: %v", rec.Err), nil)
		j.unjournaled = true
		return j
	}
	if rec.Status != nil {
		return terminal(rec.Status.Status, rec.Status.Error, rec.Status)
	}

	// Non-terminal: resume. The spec bytes were journaled exactly as
	// submitted, so re-parsing them is the same validation the original
	// submission passed.
	spec, err := scenario.Parse(rec.Sub.Spec)
	if err != nil {
		j := terminal("failed", fmt.Sprintf("recovered spec no longer parses: %v", err), nil)
		j.jlog = rec.Log
		s.finishJob(j, durable.Status{Status: j.status, Error: j.errMsg})
		return j
	}
	j := &serverJob{id: rec.ID, status: "running",
		deadlineSec: rec.Sub.DeadlineSec,
		resumed:     len(rec.Done),
		jlog:        rec.Log,
		busReady:    make(chan struct{})}
	run := s.launch(j, spec, rec)
	go run()
	return j
}
