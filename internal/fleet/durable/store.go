package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analytics"
	"repro/internal/device"
)

// Record types. Unknown types fail replay: a log a newer daemon extended
// must not be half-understood.
const (
	// recSubmit opens a job log: the submission as received, before
	// expansion, so even a crash during predictor training recovers the job.
	recSubmit = byte(0x01)
	// recCells pins the expanded grid: one (name, seed) per cell, in grid
	// order. On resume the re-expanded grid is verified against it.
	recCells = byte(0x02)
	// recCell is one completed cell's ledger entry.
	recCell = byte(0x03)
	// recStatus terminates a job log ("done"/"failed"/"cancelled"). Logs
	// without one are non-terminal and resume on recovery.
	recStatus = byte(0x04)
)

// Submission is the journaled form of one job submission.
type Submission struct {
	// ID is the server-assigned job ID.
	ID string `json:"id"`
	// Spec is the scenario spec exactly as submitted (the same bytes
	// scenario.Parse accepted), re-parsed on recovery.
	Spec json.RawMessage `json:"spec"`
	// DeadlineSec is the sweep's wall-clock deadline at submission (0:
	// none); recovery re-applies it as a fresh window.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// Event records the stepping engine the sweep ran on, as a stable
	// code. Journals this build writes carry engineJump (3), whatever the
	// caller set; older builds wrote 0 (the omitted value: the fixed-tick
	// loop), 1 or 2, and Resume refuses those rather than finish a sweep
	// on another engine.
	Event int `json:"event,omitempty"`
}

// CellRef pins one expanded grid cell: its name and its pre-resolved
// device seed. The pair is what makes resume exact — a re-expansion that
// produces different names or seeds is a different sweep.
type CellRef struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
}

// CellResult is one completed cell's ledger entry: everything needed to
// restore its JobResult and its violation statistics without re-running
// it. Result travels with Trace and Records stripped (the per-sample
// history is the one thing not journaled — aggregates do not need it).
type CellResult struct {
	Index     int                      `json:"index"`
	Name      string                   `json:"name"`
	SeedUsed  int64                    `json:"seed_used"`
	Error     string                   `json:"error,omitempty"`
	Result    *device.RunResult        `json:"result,omitempty"`
	Violation analytics.ViolationAccum `json:"violation"`
}

// Status is the terminal record of a job log.
type Status struct {
	Status  string                  `json:"status"`
	Error   string                  `json:"error,omitempty"`
	Comfort []analytics.UserComfort `json:"comfort,omitempty"`
}

// Store manages one state directory of per-job WAL files
// (`<dir>/<jobID>.wal`).
type Store struct {
	dir string
}

// cellSyncEvery is a job log's fsync batch size for cell ledger appends.
// Submission, cell-table and terminal records always sync immediately.
const cellSyncEvery = 8

// OpenStore opens (creating if needed) a state directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

func (s *Store) walPath(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("durable: unsafe job ID %q", id)
	}
	return filepath.Join(s.dir, id+".wal"), nil
}

// Begin opens a fresh job log and journals the submission (synced before
// returning, so an accepted job survives an immediate crash), stamped
// with this build's engine. It fails if a log for the ID already exists —
// the job-ID collision backstop.
func (s *Store) Begin(sub Submission) (*JobLog, error) {
	sub.Event = engineJump
	path, err := s.walPath(sub.ID)
	if err != nil {
		return nil, err
	}
	w, err := CreateExclusive(path)
	if err != nil {
		return nil, err
	}
	w.SyncEvery = 1
	l := &JobLog{wal: w}
	payload, err := json.Marshal(sub)
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Append(recSubmit, payload); err != nil {
		w.Close()
		return nil, err
	}
	return l, nil
}

// JobLog is one job's append side of the WAL. Methods are safe for
// concurrent use; the first append failure latches — subsequent calls
// return it without touching the file — so a dying disk degrades a job to
// unjournaled exactly once instead of failing the sweep.
type JobLog struct {
	mu     sync.Mutex
	wal    *WAL
	err    error
	closed bool
}

func (l *JobLog) append(typ byte, v any, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		l.err = fmt.Errorf("durable: append to closed job log")
		return l.err
	}
	payload, err := json.Marshal(v)
	if err != nil {
		l.err = err
		return err
	}
	if sync {
		l.wal.SyncEvery = 1
	} else {
		l.wal.SyncEvery = cellSyncEvery
	}
	if err := l.wal.Append(typ, payload); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Cells journals the expanded cell table (synced: the table is what makes
// every later ledger entry interpretable).
func (l *JobLog) Cells(cells []CellRef) error { return l.append(recCells, cells, true) }

// CellDone appends one completed cell to the ledger, fsync-batched.
func (l *JobLog) CellDone(c CellResult) error { return l.append(recCell, c, false) }

// Finish journals the terminal status (synced).
func (l *JobLog) Finish(st Status) error { return l.append(recStatus, st, true) }

// Close syncs and closes the log file.
func (l *JobLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	if err := l.wal.Close(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// RecoveredJob is one job log's replayed state.
type RecoveredJob struct {
	// ID is the job ID (from the file name; verified against the
	// submission record).
	ID string
	// Sub is the journaled submission (nil only when Err is set).
	Sub *Submission
	// Cells is the journaled cell table (nil: the crash predated
	// expansion; re-expand from Sub.Spec and journal it then).
	Cells []CellRef
	// Done maps full-grid cell index → ledger entry. Replaying a log twice
	// (or a duplicate append) keeps the last entry per index — replay is
	// idempotent.
	Done map[int]CellResult
	// Status is the terminal record (nil: non-terminal; resume it).
	Status *Status
	// Log is the reopened append side for non-terminal jobs (nil when Err
	// is set or the job is terminal).
	Log *JobLog
	// Err reports an unusable log (corruption, version skew, malformed
	// records). The job surfaces as failed rather than silently vanishing.
	Err error
}

// Recover replays every job log in the state directory, in job-ID order
// (numeric suffix order for `j<N>` IDs, lexicographic otherwise).
// Non-terminal jobs come back with an open Log ready for further appends.
func (s *Store) Recover() ([]RecoveredJob, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(e.Name(), ".wal"))
	}
	sort.Slice(ids, func(i, j int) bool {
		a, aok := JobSeq(ids[i])
		b, bok := JobSeq(ids[j])
		if aok && bok {
			return a < b
		}
		if aok != bok {
			return aok
		}
		return ids[i] < ids[j]
	})
	out := make([]RecoveredJob, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.recoverOne(id))
	}
	return out, nil
}

// recoverOne replays a single job log.
func (s *Store) recoverOne(id string) RecoveredJob {
	rj := RecoveredJob{ID: id}
	path, err := s.walPath(id)
	if err != nil {
		rj.Err = err
		return rj
	}
	w, recs, err := Open(path)
	if err != nil {
		rj.Err = err
		return rj
	}
	sub, cells, done, status, err := replay(recs)
	if err != nil {
		w.Close()
		rj.Err = fmt.Errorf("durable: job %s: %w", id, err)
		return rj
	}
	rj.Sub, rj.Cells, rj.Done, rj.Status = sub, cells, done, status
	if rj.Sub == nil {
		w.Close()
		rj.Err = fmt.Errorf("durable: job %s: log has no submission record", id)
		return rj
	}
	if rj.Sub.ID != id {
		w.Close()
		rj.Err = fmt.Errorf("durable: job log %s claims ID %q", id, rj.Sub.ID)
		return rj
	}
	if rj.Status != nil {
		// Terminal: nothing more will be appended.
		w.Close()
		return rj
	}
	rj.Log = &JobLog{wal: w}
	return rj
}

// JobSeq parses the job server's `j<N>` ID convention: "j" followed by
// decimal digits only. It refuses an N that does not fit an int, so an
// oversized ID in a state directory cannot wrap into a small or negative
// sequence number. Recovery orders by it, and a restarted server seeds
// its ID counter from it.
func JobSeq(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || digits == "" || strings.TrimLeft(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0, false
	}
	return n, true
}
