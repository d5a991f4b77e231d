package durable

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/analytics"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// replay folds a job log's raw records into typed state. Later records
// win per cell index, so replaying a log twice is idempotent. A record
// that does not decode, or of an unknown type, is ErrCorrupt.
func replay(recs []Record) (sub *Submission, cells []CellRef, done map[int]CellResult, status *Status, err error) {
	done = map[int]CellResult{}
	for _, r := range recs {
		switch r.Type {
		case recSubmit:
			var s Submission
			if err = json.Unmarshal(r.Payload, &s); err != nil {
				err = fmt.Errorf("%w: submission record: %w", ErrCorrupt, err)
				return
			}
			sub = &s
		case recCells:
			var cs []CellRef
			if err = json.Unmarshal(r.Payload, &cs); err != nil {
				err = fmt.Errorf("%w: cell table: %w", ErrCorrupt, err)
				return
			}
			cells = cs
		case recCell:
			var c CellResult
			if err = json.Unmarshal(r.Payload, &c); err != nil {
				err = fmt.Errorf("%w: cell record: %w", ErrCorrupt, err)
				return
			}
			done[c.Index] = c
		case recStatus:
			var st Status
			if err = json.Unmarshal(r.Payload, &st); err != nil {
				err = fmt.Errorf("%w: status record: %w", ErrCorrupt, err)
				return
			}
			status = &st
		default:
			err = fmt.Errorf("%w: unknown record type 0x%02x", ErrCorrupt, r.Type)
			return
		}
	}
	return
}

// GridCells extracts the journaled cell table from an expanded grid.
func GridCells(grid *scenario.Grid) []CellRef {
	out := make([]CellRef, len(grid.Points))
	for i, p := range grid.Points {
		out[i] = CellRef{Name: p.Name, Seed: p.Seed}
	}
	return out
}

// Plan is a verified resume: the full grid, the ledgered cells, and the
// indices still to run.
type Plan struct {
	Grid *scenario.Grid
	Done map[int]CellResult
	Todo []int
}

// NewPlan verifies a journaled cell table (and ledger) against a freshly
// re-expanded grid and returns the resume plan. Any mismatch — cell
// count, a cell's name or seed — means the spec no longer expands to the
// sweep the ledger describes, and resuming would silently mix physics; it
// fails with a descriptive error instead. Ledger entries are verified the
// same way. cells may be nil (crash before expansion): the plan is then
// simply "run everything".
func NewPlan(grid *scenario.Grid, cells []CellRef, done map[int]CellResult) (*Plan, error) {
	if cells != nil {
		if len(cells) != len(grid.Points) {
			return nil, fmt.Errorf("durable: journaled sweep has %d cells, spec expands to %d", len(cells), len(grid.Points))
		}
		for i, c := range cells {
			p := grid.Points[i]
			if c.Name != p.Name || c.Seed != p.Seed {
				return nil, fmt.Errorf("durable: cell %d mismatch: journal has (%s, seed %d), spec expands to (%s, seed %d)",
					i, c.Name, c.Seed, p.Name, p.Seed)
			}
		}
	}
	p := &Plan{Grid: grid, Done: map[int]CellResult{}}
	for idx, c := range done {
		if cells == nil {
			return nil, fmt.Errorf("durable: ledger entry for cell %d but no journaled cell table", idx)
		}
		if idx < 0 || idx >= len(grid.Points) {
			return nil, fmt.Errorf("durable: ledger entry for cell %d outside the %d-cell grid", idx, len(grid.Points))
		}
		if pt := grid.Points[idx]; c.Name != pt.Name {
			return nil, fmt.Errorf("durable: ledger cell %d named %q, grid cell is %q", idx, c.Name, pt.Name)
		}
		p.Done[idx] = c
	}
	for i := range grid.Points {
		if _, ok := p.Done[i]; !ok {
			p.Todo = append(p.Todo, i)
		}
	}
	return p, nil
}

// SubGrid returns the grid restricted to the unfinished cells plus the
// subset→full index remap table. When nothing was recovered it returns
// the full grid and a nil remap (no translation layer needed).
func (p *Plan) SubGrid() (*scenario.Grid, []int, error) {
	if len(p.Done) == 0 {
		return p.Grid, nil, nil
	}
	sub, err := p.Grid.Subset(p.Todo)
	if err != nil {
		return nil, nil, err
	}
	// The remap must stay non-nil even when Todo is empty (every cell
	// ledgered): callers key the "merge restored cells around the live
	// subset" path off remap != nil.
	remap := make([]int, len(p.Todo))
	copy(remap, p.Todo)
	return sub, remap, nil
}

// RestoredResult rebuilds a ledgered cell's JobResult at its full-grid
// index. Journaled errors come back as plain errors — the original type
// is gone, but analytics only consume the message.
func RestoredResult(c CellResult) fleet.JobResult {
	r := fleet.JobResult{Index: c.Index, Name: c.Name, SeedUsed: c.SeedUsed, Result: c.Result}
	if c.Error != "" {
		r.Err = fmt.Errorf("%s", c.Error)
	}
	return r
}

// MergeInto fills the recovered cells' results into a full-grid result
// slice (live cells already hold theirs).
func (p *Plan) MergeInto(results []fleet.JobResult) {
	for idx, c := range p.Done {
		if idx >= 0 && idx < len(results) {
			results[idx] = RestoredResult(c)
		}
	}
}

// ApplyViolations applies the ledgered violation counters to the
// flattened stats. Call it after the live run's ViolationSink.Apply: live
// and recovered cells are disjoint, and a recovered index's live counter
// is empty (ApplyTo on N==0 is a no-op), so the two passes compose.
func (p *Plan) ApplyViolations(stats []analytics.JobStat) {
	for i := range stats {
		if c, ok := p.Done[stats[i].Index]; ok {
			c.Violation.ApplyTo(&stats[i])
		}
	}
}

// CellEntry builds one completed cell's ledger entry from its live
// result and the violation counters the sweep streamed for it. The result
// is copied with Trace and Records stripped — per-sample history is not
// journaled.
func CellEntry(res fleet.JobResult, acc analytics.ViolationAccum) CellResult {
	c := CellResult{Index: res.Index, Name: res.Name, SeedUsed: res.SeedUsed, Violation: acc}
	if res.Err != nil {
		c.Error = res.Err.Error()
	}
	if res.Result != nil {
		cp := *res.Result
		cp.Trace = nil
		cp.Records = nil
		c.Result = &cp
	}
	return c
}

// engineJump is the Submission.Event code of the one stepping engine this
// build runs, the event engine's jump mode. Codes are stable across
// builds: 0 was the fixed-tick loop, 1 and 2 the event engine's tick and
// oracle modes.
const engineJump = 3

// engineNames spells the engine codes older builds journaled.
var engineNames = [...]string{"fixed-tick", "event-tick", "event-oracle"}

// EventMismatchError refuses to resume a sweep journaled on a stepping
// engine this build does not run: finishing it on another engine would
// mix physics in one result.
type EventMismatchError struct {
	// Journaled is the journal's engine code (Submission.Event).
	Journaled int
}

func (e *EventMismatchError) Error() string {
	name := fmt.Sprintf("code %d", e.Journaled)
	if e.Journaled >= 0 && e.Journaled < len(engineNames) {
		name = engineNames[e.Journaled]
	}
	return fmt.Sprintf("durable: sweep was journaled on the %s engine, which this build does not run; start the sweep afresh", name)
}

// Resume is the plan step every sweep goes through. rj is the sweep's
// replayed journal (nil: a fresh sweep). The journal must have been
// written on this build's engine (an *EventMismatchError otherwise);
// when it holds no cell table yet — a fresh sweep, or a crash before
// expansion — the grid's table is handed to journalCells (nil: not
// journaled). The plan verifies any journaled table and ledger against
// the grid (see NewPlan).
func Resume(grid *scenario.Grid, rj *RecoveredJob, journalCells func([]CellRef) error) (*Plan, error) {
	var cells []CellRef
	var done map[int]CellResult
	if rj != nil {
		if rj.Sub != nil && rj.Sub.Event != engineJump {
			return nil, &EventMismatchError{Journaled: rj.Sub.Event}
		}
		cells, done = rj.Cells, rj.Done
	}
	if cells == nil && journalCells != nil {
		if err := journalCells(GridCells(grid)); err != nil {
			return nil, err
		}
	}
	return NewPlan(grid, cells, done)
}

// OpenSweep opens (or creates) a single-sweep WAL for a local run — the
// `ustasim -wal` path. A fresh (or header-only) file is initialized with
// the submission and cell table. An existing journal requires
// resume=true, and is then verified through Resume — same engine, same
// grid — and returned with its plan; a journal without resume is refused
// rather than overwritten.
func OpenSweep(path string, grid *scenario.Grid, spec json.RawMessage, resume bool) (*JobLog, *Plan, error) {
	fi, statErr := os.Stat(path)
	if statErr != nil && !os.IsNotExist(statErr) {
		return nil, nil, statErr
	}
	var w *WAL
	var err error
	rj := &RecoveredJob{ID: "sweep"}
	if statErr == nil && fi.Size() > 0 {
		if !resume {
			return nil, nil, fmt.Errorf("durable: %s already journals a sweep; pass -resume to continue it or remove the file", path)
		}
		var recs []Record
		if w, recs, err = Open(path); err != nil {
			return nil, nil, err
		}
		if rj.Sub, rj.Cells, rj.Done, _, err = replay(recs); err != nil {
			w.Close()
			return nil, nil, err
		}
	} else if w, err = Create(path); err != nil {
		return nil, nil, err
	}
	l := &JobLog{wal: w}
	if rj.Sub == nil {
		// A fresh file, or a header-only one (a crash before the submission
		// synced): journal the submission now.
		rj.Sub = &Submission{ID: rj.ID, Spec: spec, Event: engineJump}
		if err := l.append(recSubmit, rj.Sub, true); err != nil {
			l.Close()
			return nil, nil, err
		}
	}
	plan, err := Resume(grid, rj, l.Cells)
	if err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, plan, nil
}
