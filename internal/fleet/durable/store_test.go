package durable

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/device"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Begin stamps the engine code whatever the caller set.
	sub := Submission{ID: "j3", Spec: json.RawMessage(`{"version":1}`), DeadlineSec: 60, Event: 2}
	l, err := st.Begin(sub)
	if err != nil {
		t.Fatal(err)
	}
	cells := []CellRef{{Name: "a", Seed: 101}, {Name: "b", Seed: 102}, {Name: "c", Seed: 103}}
	if err := l.Cells(cells); err != nil {
		t.Fatal(err)
	}
	done := CellResult{Index: 1, Name: "b", SeedUsed: 102,
		Result:    &device.RunResult{MaxSkinC: 39.25, EnergyJ: 1234.5},
		Violation: analytics.ViolationAccum{N: 30, Over: 4, Excess: 1.5}}
	if err := l.CellDone(done); err != nil {
		t.Fatal(err)
	}
	if err := l.Finish(Status{Status: "failed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	rj := jobs[0]
	if rj.Err != nil {
		t.Fatal(rj.Err)
	}
	if rj.ID != "j3" || rj.Sub == nil || rj.Sub.DeadlineSec != 60 || rj.Sub.Event != engineJump {
		t.Fatalf("submission mismatch: %+v", rj.Sub)
	}
	if len(rj.Cells) != 3 || rj.Cells[2].Seed != 103 {
		t.Fatalf("cell table mismatch: %+v", rj.Cells)
	}
	got, ok := rj.Done[1]
	if !ok || got.Result == nil || got.Result.MaxSkinC != 39.25 || got.Violation.Over != 4 {
		t.Fatalf("ledger mismatch: %+v", got)
	}
	if rj.Status == nil || rj.Status.Status != "failed" || rj.Status.Error != "boom" {
		t.Fatalf("status mismatch: %+v", rj.Status)
	}
	if rj.Log != nil {
		t.Fatal("terminal job must not carry an open log")
	}
}

func TestStoreRecoverNonTerminal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cells([]CellRef{{Name: "a", Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	// No Finish: simulate the crash by dropping the handle without Close
	// (the records above are already synced).
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Status != nil || jobs[0].Log == nil {
		t.Fatalf("non-terminal job not resumable: %+v", jobs[0])
	}
	// The recovered log accepts the rest of the run.
	if err := jobs[0].Log.CellDone(CellResult{Index: 0, Name: "a", SeedUsed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jobs[0].Log.Finish(Status{Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := jobs[0].Log.Close(); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Status == nil || jobs[0].Status.Status != "done" || len(jobs[0].Done) != 1 {
		t.Fatalf("resumed job did not seal: %+v", jobs[0])
	}
}

// TestStoreDoubleReplayIdempotent replays a log with a duplicate ledger
// entry for the same cell: the last record wins and the map holds one
// entry, so re-journaling a cell (crash between append and ack) is safe.
func TestStoreDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	l.Cells([]CellRef{{Name: "a", Seed: 1}})
	l.CellDone(CellResult{Index: 0, Name: "a", SeedUsed: 1, Error: "first"})
	l.CellDone(CellResult{Index: 0, Name: "a", SeedUsed: 1, Error: "second"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		jobs, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs[0].Done) != 1 || jobs[0].Done[0].Error != "second" {
			t.Fatalf("round %d: duplicate ledger entries not last-wins: %+v", round, jobs[0].Done)
		}
	}
}

func TestStoreUnknownRecordType(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.wal.Append(0x7F, []byte(`{}`)) // a record type this version never writes
	l.mu.Unlock()
	l.Close()
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Err == nil || !strings.Contains(jobs[0].Err.Error(), "unknown record type") {
		t.Fatalf("unknown record type: err = %v", jobs[0].Err)
	}
}

func TestStoreIDMismatch(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Rename the file so its name no longer matches the journaled ID.
	if err := os.Rename(filepath.Join(dir, "j1.wal"), filepath.Join(dir, "j9.wal")); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Err == nil || !strings.Contains(jobs[0].Err.Error(), "claims ID") {
		t.Fatalf("ID mismatch: err = %v", jobs[0].Err)
	}
}

func TestStoreBeginCollision(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)}); err == nil {
		t.Fatal("Begin with a duplicate ID must fail")
	}
}

func TestStoreUnsafeIDs(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	for _, id := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := st.Begin(Submission{ID: id}); err == nil {
			t.Fatalf("unsafe ID %q accepted", id)
		}
	}
}

func TestMaxSeqAndOrdering(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	for _, id := range []string{"j2", "j10", "j1"} {
		l, err := st.Begin(Submission{ID: id, Spec: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, rj := range jobs {
		order = append(order, rj.ID)
		if rj.Log != nil {
			rj.Log.Close()
		}
	}
	if got := strings.Join(order, ","); got != "j1,j2,j10" {
		t.Fatalf("recovery order = %s, want numeric j1,j2,j10", got)
	}
	if got := MaxSeq(jobs); got != 10 {
		t.Fatalf("MaxSeq = %d, want 10", got)
	}
}

// TestJobLogErrorLatch points a log at a closed file: the first append
// fails, and every later operation returns the same latched error without
// touching the file again.
func TestJobLogErrorLatch(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	l, err := st.Begin(Submission{ID: "j1", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	l.wal.f.Close() // simulate the disk dying under the log
	first := l.CellDone(CellResult{Index: 0})
	if first == nil {
		t.Fatal("append on closed file must fail")
	}
	if second := l.Finish(Status{Status: "done"}); second == nil {
		t.Fatal("latched log must keep failing")
	}
	if l.Err() == nil {
		t.Fatal("Err() must report the latched failure")
	}
}
