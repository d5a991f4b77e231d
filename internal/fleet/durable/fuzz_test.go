package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// testJournal is a complete single-sweep journal over testGrid, as this
// build writes one: header, submission, cell table, one ledgered cell and
// the terminal status.
func testJournal(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		typ byte
		v   any
	}{
		{recSubmit, Submission{ID: "sweep", Spec: json.RawMessage(`{}`), Event: engineJump}},
		{recCells, GridCells(testGrid())},
		{recCell, CellResult{Index: 1, Name: "b", SeedUsed: 11}},
		{recStatus, Status{Status: "done"}},
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzWALOpen feeds arbitrary bytes on disk to a journal's read side:
// Open, replay, then Resume against a small grid. Open and replay must
// return records or an error wrapping ErrCorrupt or ErrVersion, Resume
// must refuse any engine but this build's, and nothing may panic. A file
// Open accepts with two or more records must be refused with ErrCorrupt
// once its first record's checksum is flipped: the damage has intact
// records behind it, so it is not a torn tail. The committed corpus lives
// in testdata/fuzz/FuzzWALOpen.
func FuzzWALOpen(f *testing.F) {
	f.Add(testJournal(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sub, cells, done, _, err := replay(recs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay: untyped error %v", err)
			}
			return
		}
		_, err = Resume(testGrid(), &RecoveredJob{ID: "sweep", Sub: sub, Cells: cells, Done: done}, nil)
		var em *EventMismatchError
		if sub != nil && sub.Event != engineJump && !errors.As(err, &em) {
			t.Fatalf("Resume of engine code %d: err = %v, want *EventMismatchError", sub.Event, err)
		}

		if len(recs) < 2 {
			return
		}
		// Open truncated any torn tail, so the file is now the header and
		// exactly recs; flip a bit of the first record's checksum.
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		intact[walHeaderLen+4+1+len(recs[0].Payload)] ^= 1
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
		if w, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				w.Close()
			}
			t.Fatalf("Open with an interior checksum flipped: err = %v, want ErrCorrupt", err)
		}
	})
}
