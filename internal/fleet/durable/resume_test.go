package durable

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// testGrid builds a minimal 4-cell grid (names a..d, seeds 10..13).
func testGrid() *scenario.Grid {
	g := &scenario.Grid{}
	for i, name := range []string{"a", "b", "c", "d"} {
		g.Points = append(g.Points, scenario.Point{
			Index: i, GridIndex: i, Cell: i, Name: name,
			Seed: int64(10 + i), LimitC: 37})
		g.Jobs = append(g.Jobs, fleet.Job{Seed: int64(10 + i)})
	}
	return g
}

func TestNewPlanVerification(t *testing.T) {
	grid := testGrid()
	cells := GridCells(grid)
	done := map[int]CellResult{1: {Index: 1, Name: "b", SeedUsed: 11}}

	plan, err := NewPlan(grid, cells, done)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Todo) != 3 || plan.Todo[0] != 0 || plan.Todo[1] != 2 || plan.Todo[2] != 3 {
		t.Fatalf("Todo = %v, want [0 2 3]", plan.Todo)
	}
	if plan.Complete() {
		t.Fatal("plan with 3 todo cells reports complete")
	}

	// Mismatched seed: the spec no longer expands to the journaled sweep.
	bad := append([]CellRef(nil), cells...)
	bad[2].Seed = 999
	if _, err := NewPlan(grid, bad, nil); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("seed mismatch: err = %v", err)
	}
	// Wrong cell count.
	if _, err := NewPlan(grid, cells[:3], nil); err == nil {
		t.Fatal("short cell table accepted")
	}
	// Ledger entry with no table.
	if _, err := NewPlan(grid, nil, done); err == nil {
		t.Fatal("ledger without cell table accepted")
	}
	// Ledger entry out of range.
	if _, err := NewPlan(grid, cells, map[int]CellResult{9: {Index: 9}}); err == nil {
		t.Fatal("out-of-range ledger entry accepted")
	}
	// Ledger entry naming the wrong cell.
	if _, err := NewPlan(grid, cells, map[int]CellResult{0: {Index: 0, Name: "zzz"}}); err == nil {
		t.Fatal("misnamed ledger entry accepted")
	}
}

func TestPlanSubGridAndMerge(t *testing.T) {
	grid := testGrid()
	cells := GridCells(grid)
	done := map[int]CellResult{
		0: {Index: 0, Name: "a", SeedUsed: 10},
		2: {Index: 2, Name: "c", SeedUsed: 12, Error: "cell failed"},
	}
	plan, err := NewPlan(grid, cells, done)
	if err != nil {
		t.Fatal(err)
	}
	sub, remap, err := plan.SubGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != 2 || remap[0] != 1 || remap[1] != 3 {
		t.Fatalf("subset: %d jobs, remap %v", len(sub.Jobs), remap)
	}
	if sub.Points[0].Name != "b" || sub.Points[0].Seed != 11 || sub.Points[0].Index != 0 {
		t.Fatalf("subset point 0: %+v", sub.Points[0])
	}

	results := make([]fleet.JobResult, 4)
	results[1] = fleet.JobResult{Index: 1, Name: "b"}
	results[3] = fleet.JobResult{Index: 3, Name: "d"}
	plan.MergeInto(results)
	if results[0].Name != "a" || results[0].SeedUsed != 10 {
		t.Fatalf("merged cell 0: %+v", results[0])
	}
	if results[2].Err == nil || results[2].Err.Error() != "cell failed" {
		t.Fatalf("merged cell 2 error: %v", results[2].Err)
	}

	// A plan with nothing done short-circuits: full grid, nil remap.
	all, err := NewPlan(grid, cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, remap2, err := all.SubGrid()
	if err != nil {
		t.Fatal(err)
	}
	if full != grid || remap2 != nil {
		t.Fatal("empty-done plan must return the full grid with nil remap")
	}
}

func TestApplyViolations(t *testing.T) {
	grid := testGrid()
	plan, err := NewPlan(grid, GridCells(grid), map[int]CellResult{
		1: {Index: 1, Name: "b", Violation: analytics.ViolationAccum{N: 10, Over: 5, Excess: 2.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := []analytics.JobStat{{Point: scenario.Point{Index: 0}}, {Point: scenario.Point{Index: 1}}}
	plan.ApplyViolations(stats)
	if got := stats[1].OverFrac; got != 0.5 {
		t.Fatalf("restored OverFrac = %v, want 0.5", got)
	}
	if got := stats[1].MeanExcessC; got != 0.4 {
		t.Fatalf("restored MeanExcessC = %v, want 0.4", got)
	}
}

func TestOpenSweepLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.wal")
	grid := testGrid()
	spec := json.RawMessage(`{"version":1}`)

	// Fresh: all cells todo.
	l, plan, err := OpenSweep(path, grid, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Todo) != 4 {
		t.Fatalf("fresh plan: %d todo, want 4", len(plan.Todo))
	}
	if err := l.CellDone(CellResult{Index: 2, Name: "c", SeedUsed: 12}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Existing non-empty log without resume: refused, not overwritten.
	if _, _, err := OpenSweep(path, grid, spec, false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("overwrite refusal: err = %v", err)
	}

	// Resume: cell 2 restored, three to run.
	l, plan, err = OpenSweep(path, grid, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Todo) != 3 || len(plan.Done) != 1 {
		t.Fatalf("resumed plan: todo %v done %d", plan.Todo, len(plan.Done))
	}
	if err := l.Finish(Status{Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSweepGridDrift resumes under a grid whose seeds changed: the
// journal must refuse rather than mix physics.
func TestOpenSweepGridDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.wal")
	grid := testGrid()
	l, _, err := OpenSweep(path, grid, json.RawMessage(`{}`), false)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	drift := testGrid()
	drift.Points[3].Seed = 777
	if _, _, err := OpenSweep(path, drift, json.RawMessage(`{}`), true); err == nil {
		t.Fatal("seed drift accepted on resume")
	}
}

// TestOpenSweepHeaderOnly resumes a file holding only the WAL header (a
// crash before the submission record synced): it is a fresh sweep, so
// the submission and cell table are journaled and every cell is planned.
func TestOpenSweepHeaderOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	grid := testGrid()
	spec := json.RawMessage(`{"version":1}`)
	l, plan, err := OpenSweep(path, grid, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Todo) != 4 || len(plan.Done) != 0 {
		t.Fatalf("header-only plan: todo %v done %d, want every cell todo", plan.Todo, len(plan.Done))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	sub, cells, done, status, err := replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if sub == nil || sub.Event != 3 || string(sub.Spec) != string(spec) {
		t.Fatalf("journaled submission = %+v", sub)
	}
	if len(cells) != 4 || cells[3] != (CellRef{Name: "d", Seed: 13}) {
		t.Fatalf("journaled cell table = %v", cells)
	}
	if len(done) != 0 || status != nil {
		t.Fatalf("header-only resume journaled %d cells, status %v", len(done), status)
	}
}

// writeSweepJournal writes a single-sweep journal the way a build that
// ran the given engine code left it: the submission, grid's cell table
// and cell 1 ledgered.
func writeSweepJournal(t *testing.T, path string, grid *scenario.Grid, code int) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		typ byte
		v   any
	}{
		{recSubmit, Submission{ID: "sweep", Spec: json.RawMessage(`{}`), Event: code}},
		{recCells, GridCells(grid)},
		{recCell, CellResult{Index: 1, Name: "b", SeedUsed: 11}},
	} {
		payload, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(r.typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeEventMismatch: a journal written on an engine this build does
// not run refuses to resume with the typed error, whether it reaches
// Resume from a job server's store or through OpenSweep. That is code 0
// (the fixed-tick loop: every journal from before the jump engine became
// the default), 1 and 2; a code-3 journal resumes.
func TestResumeEventMismatch(t *testing.T) {
	grid := testGrid()
	for code, name := range []string{"fixed-tick", "event-tick", "event-oracle"} {
		_, err := Resume(grid, &RecoveredJob{Sub: &Submission{ID: "j1", Event: code}}, nil)
		var em *EventMismatchError
		if !errors.As(err, &em) || em.Journaled != code {
			t.Fatalf("Resume code %d: err = %v, want *EventMismatchError{%d}", code, err, code)
		}
		if msg := err.Error(); !strings.Contains(msg, name) || !strings.Contains(msg, "afresh") {
			t.Fatalf("Resume code %d: err = %q does not name the journal's engine", code, msg)
		}

		path := filepath.Join(t.TempDir(), "sweep.wal")
		writeSweepJournal(t, path, grid, code)
		if _, _, err = OpenSweep(path, grid, json.RawMessage(`{}`), true); !errors.As(err, &em) || em.Journaled != code {
			t.Fatalf("OpenSweep code %d: err = %v, want *EventMismatchError{%d}", code, err, code)
		}
	}

	path := filepath.Join(t.TempDir(), "sweep.wal")
	writeSweepJournal(t, path, grid, engineJump)
	l, plan, err := OpenSweep(path, grid, json.RawMessage(`{}`), true)
	if err != nil {
		t.Fatalf("OpenSweep code 3: %v", err)
	}
	if len(plan.Done) != 1 || len(plan.Todo) != 3 {
		t.Fatalf("resumed plan: todo %v done %d, want cell 1 restored", plan.Todo, len(plan.Done))
	}
	l.Close()
}

// Complete reports whether nothing is left to run.
func (p *Plan) Complete() bool { return len(p.Todo) == 0 }
