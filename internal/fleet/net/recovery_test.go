package net_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
)

// stateServer wires a JobServer to a durable store in dir, replays any
// existing logs, and serves it over httptest. Cleanup tears both down.
func stateServer(t *testing.T, dir string) (*fleetnet.JobServer, *httptest.Server) {
	t.Helper()
	store, err := durable.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	js := fleetnet.NewJobServer(nil) // local execution: deterministic
	js.Workers = 2
	js.Store = store
	if err := js.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(js.Handler())
	t.Cleanup(func() { js.Close() })
	t.Cleanup(ts.Close)
	return js, ts
}

// comfortJSON canonicalises a status body's comfort table for comparison.
// Both sides pass through the same decode/re-marshal, so equality here is
// equality of every float64 the analytics produced.
func comfortJSON(t *testing.T, body map[string]any) string {
	t.Helper()
	c, ok := body["comfort"]
	if !ok {
		t.Fatalf("status carries no comfort table: %v", body)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobServerCrashRecoveryByteIdentity is the tentpole pin: run a sweep
// to completion under a state dir, then simulate crashes by truncating the
// job's WAL at several byte offsets — mid cell table, mid ledger, mid
// status record, and the intact file. Every restart must converge on a
// comfort table byte-identical to the uninterrupted run.
func TestJobServerCrashRecoveryByteIdentity(t *testing.T) {
	cleanDir := t.TempDir()
	_, ts := stateServer(t, cleanDir)
	id := submit(t, ts, e2eSpec)
	final := waitStatus(t, ts, id)
	if final["status"] != "done" {
		t.Fatalf("clean run finished %v", final)
	}
	want := comfortJSON(t, final)

	wal, err := os.ReadFile(filepath.Join(cleanDir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	// First frame is the submission record: [4B len][1B type][payload][4B crc]
	// after the 8-byte header. Cuts before its end model a crash before the
	// submit ack, where the job never existed from the client's view.
	submitEnd := 8 + 4 + 1 + int(binary.LittleEndian.Uint32(wal[8:])) + 4
	cuts := []int{
		submitEnd,                  // cell table lost: full re-run
		submitEnd + 10,             // torn mid cell table
		(submitEnd + len(wal)) / 2, // partial ledger survives
		len(wal) - 5,               // torn status record: all cells ledgered
		len(wal),                   // intact: terminal restore, no re-run
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, id+".wal"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts2 := stateServer(t, dir)
		got := waitStatus(t, ts2, id)
		if got["status"] != "done" {
			t.Fatalf("cut %d/%d: recovered job finished %v", cut, len(wal), got)
		}
		if g := comfortJSON(t, got); g != want {
			t.Fatalf("cut %d/%d: comfort diverged\n got %s\nwant %s", cut, len(wal), g, want)
		}
	}
}

// journalDone writes a finished job log for each ID into a state dir.
func journalDone(t *testing.T, dir string, ids ...string) {
	t.Helper()
	store, err := durable.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		l, err := store.Begin(durable.Submission{ID: id, Spec: json.RawMessage(e2eSpec)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Finish(durable.Status{Status: "done"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobServerRestartUniqueIDs: after recovery the ID sequence resumes
// past every journaled job, so a new submission can never collide with a
// recovered one. An ID whose number overflows an int does not count:
// 18446744073709551621 is 2^64+5, which a wrapping parser reads as 5.
func TestJobServerRestartUniqueIDs(t *testing.T) {
	dir := t.TempDir()
	journalDone(t, dir, "j3", "j18446744073709551621")

	_, ts := stateServer(t, dir)
	// The recovered terminal job is queryable.
	body := poll(t, ts, "j3")
	if body["status"] != "done" {
		t.Fatalf("recovered job j3 status = %v", body["status"])
	}
	// A fresh submission continues the sequence instead of reusing j1..j3.
	id := submit(t, ts, e2eSpec)
	if id != "j4" {
		t.Fatalf("post-recovery submission got ID %q, want j4", id)
	}
	if _, err := os.Stat(filepath.Join(dir, "j4.wal")); err != nil {
		t.Fatalf("new job not journaled: %v", err)
	}
	if waitStatus(t, ts, id)["status"] != "done" {
		t.Fatal("post-recovery submission did not complete")
	}
}

// TestJobServerListsJobs: GET /jobs lists every job, recovered ones too,
// in submission order, each entry byte for byte the body GET /jobs/{id}
// serves for it.
func TestJobServerListsJobs(t *testing.T) {
	dir := t.TempDir()
	journalDone(t, dir, "j2")
	_, ts := stateServer(t, dir)
	ids := []string{"j2", submit(t, ts, e2eSpec), submit(t, ts, e2eSpec)}
	for _, id := range ids {
		if st := waitStatus(t, ts, id)["status"]; st != "done" {
			t.Fatalf("job %s finished %v", id, st)
		}
	}
	var list []json.RawMessage
	if err := json.Unmarshal([]byte(getBody(t, ts, "/jobs")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("GET /jobs listed %d jobs; want %d", len(list), len(ids))
	}
	for i, id := range ids {
		if got, want := string(list[i]), strings.TrimSuffix(getBody(t, ts, "/jobs/"+id), "\n"); got != want {
			t.Fatalf("GET /jobs entry %d:\n got %s\nwant %s (GET /jobs/%s)", i, got, want, id)
		}
	}
}

// TestJobServerRestartIDsExhausted: a recovered job holding the largest
// ID makes submissions fail instead of wrapping into negative IDs.
func TestJobServerRestartIDsExhausted(t *testing.T) {
	dir := t.TempDir()
	journalDone(t, dir, "j9223372036854775807")
	_, ts := stateServer(t, dir)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "job IDs exhausted") {
		t.Fatalf("submission past the largest ID: status %d, body %s", resp.StatusCode, body)
	}
}

// TestJobServerRecoverRefusesEventMismatch: a non-terminal log journaled
// on a stepping engine this build does not run — code 0, the fixed-tick
// loop, as every journal written before the jump engine became the
// default has, or 1 and 2, the event engine's tick and oracle modes —
// must not resume on the production engine: that would mix engines in
// one result. Each recovered job fails with the same typed mismatch
// OpenSweep reports, runs no cell, and the failure is journaled terminal
// so a later restart does not retry it.
func TestJobServerRecoverRefusesEventMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Store.Begin stamps this build's engine, so the old logs are written
	// record by record, as the builds that ran those engines left them.
	const recSubmit = 0x01
	for code := 0; code < 3; code++ {
		id := fmt.Sprintf("j%d", code+1)
		w, err := durable.Create(filepath.Join(dir, id+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(durable.Submission{ID: id, Spec: json.RawMessage(e2eSpec), Event: code})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(recSubmit, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, ts := stateServer(t, dir)
	for code := 0; code < 3; code++ {
		id := fmt.Sprintf("j%d", code+1)
		final := waitStatus(t, ts, id)
		want := (&durable.EventMismatchError{Journaled: code}).Error()
		if final["status"] != "failed" || final["error"] != want {
			t.Fatalf("recovered job %s = %v, want failed with %q", id, final, want)
		}
		if final["done"] != 0.0 {
			t.Fatalf("mismatched job %s ran %v cells", id, final["done"])
		}
	}

	recs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d journals, want 3", len(recs))
	}
	for _, rj := range recs {
		if rj.Status == nil || rj.Status.Status != "failed" || len(rj.Done) != 0 {
			t.Fatalf("journal after refusal: %+v", rj)
		}
	}
}

// TestJobServerOversizedSpecRefused: a small body whose axes multiply past
// the scenario cell cap is refused with 400 before anything is journaled, so
// the state directory stays empty and no job ID is spent.
func TestJobServerOversizedSpecRefused(t *testing.T) {
	dir := t.TempDir()
	_, ts := stateServer(t, dir)
	body := `{"version": 1, "workloads": ["all"], "population": ["all"], "ambients_c": [` +
		strings.TrimSuffix(strings.Repeat("25,", 2000), ",") + `]}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "cells") {
		t.Fatalf("refusal does not name the cell cap: %s", msg)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused submission left %d entries in the state dir (first %s)", len(entries), entries[0].Name())
	}
	if id := submit(t, ts, e2eSpec); id != "j1" {
		t.Fatalf("next accepted job is %s, want j1", id)
	}
}

// TestJobServerUnjournaledDegradation: when the store cannot create the
// job's log (here: the path is occupied by a directory, which defeats even
// root), the server logs the failure, marks the job unjournaled, and still
// serves it from memory.
func TestJobServerUnjournaledDegradation(t *testing.T) {
	dir := t.TempDir()
	// Occupy j1.wal with a directory so CreateExclusive fails regardless of
	// the uid running the tests.
	if err := os.Mkdir(filepath.Join(dir, "j1.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts := stateServer(t, dir)
	id := submit(t, ts, e2eSpec)
	final := waitStatus(t, ts, id)
	if final["status"] != "done" {
		t.Fatalf("degraded job finished %v", final)
	}
	if final["unjournaled"] != true {
		t.Fatalf("degraded job not flagged unjournaled: %v", final)
	}
	if _, ok := final["comfort"]; !ok {
		t.Fatal("degraded job lost its analytics")
	}
	// The degradation is visible on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `usta_job_unjournaled{job="j1"} 1`) {
		t.Fatal("metrics do not report the unjournaled job")
	}
}

// TestJobServerDeadlineSurvivesRestart: a job that blows its wall-clock
// deadline fails with a deadline error, the failure is journaled as
// terminal, and a restart keeps it failed instead of re-wedging the server
// on the same doomed sweep.
func TestJobServerDeadlineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	js := fleetnet.NewJobServer(nil)
	js.Workers = 1
	js.Store = store
	js.JobDeadline = time.Millisecond
	ts := httptest.NewServer(js.Handler())

	id := submit(t, ts, longSpec)
	final := waitStatus(t, ts, id)
	if final["status"] != "failed" {
		t.Fatalf("deadlined job finished %v", final)
	}
	if msg, _ := final["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("failure does not name the deadline: %v", final["error"])
	}
	if ds, _ := final["deadline_sec"].(float64); ds <= 0 {
		t.Fatalf("deadline_sec = %v, want > 0", final["deadline_sec"])
	}
	ts.Close()
	js.Close()

	// Restart over the same state dir: the failure is terminal, not re-run.
	_, ts2 := stateServer(t, dir)
	body := poll(t, ts2, id)
	if body["status"] != "failed" {
		t.Fatalf("restarted deadline job status = %v", body["status"])
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("restart lost the deadline error: %v", body["error"])
	}
}

// TestJobServerTerminalStatusIsJournaled: a job's terminal status is
// durable before any client can read it. A small submission that
// succeeds, and one that fails on a 1 ms deadline, run again and again;
// the moment GET /jobs/{id} first reads a terminal status, the journal
// must already hold that status.
func TestJobServerTerminalStatusIsJournaled(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     string
		deadline time.Duration
	}{
		{"done", e2eSpec, 0},
		{"failed", longSpec, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := durable.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			js := fleetnet.NewJobServer(nil)
			js.Workers = 2
			js.Store = store
			js.JobDeadline = tc.deadline
			ts := httptest.NewServer(js.Handler())
			defer js.Close()
			defer ts.Close()
			for range 10 {
				id := submit(t, ts, tc.spec)
				var status any
				for deadline := time.Now().Add(60 * time.Second); ; {
					if status = poll(t, ts, id)["status"]; status != "running" {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("job %s never finished", id)
					}
				}
				if status != tc.name {
					t.Fatalf("job %s finished %v, want %s", id, status, tc.name)
				}
				recs, err := store.Recover()
				if err != nil {
					t.Fatal(err)
				}
				var journaled *durable.Status
				for _, rec := range recs {
					if rec.Log != nil {
						rec.Log.Close()
					}
					if rec.ID == id {
						journaled = rec.Status
					}
				}
				if journaled == nil || journaled.Status != tc.name {
					t.Fatalf("GET /jobs/%s read %v while the journal held status %+v", id, status, journaled)
				}
			}
		})
	}
}

// TestJobServerRecoversUnparseableSpecAsFailed: a non-terminal journal
// whose spec this build no longer parses — here the YAML smoke sweep that
// earlier builds accepted, held in a JSON string, the only form a JSON
// journal can carry it in — recovers as a failed job, and the failure is
// journaled terminal: a second server on the same store restores it from
// the journal without relaunching it or writing to its log.
func TestJobServerRecoversUnparseableSpecAsFailed(t *testing.T) {
	const yamlSmoke = "version: 1\nname: smoke\nworkloads: [skype, game]\nambients_c: [25, 40]\nduration:\n  sec: 30\ntrace_free: true\n"
	spec, err := json.Marshal(yamlSmoke)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := durable.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.Begin(durable.Submission{ID: "j1", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := stateServer(t, dir)
	body := poll(t, ts, "j1")
	if msg, _ := body["error"].(string); body["status"] != "failed" || !strings.Contains(msg, "no longer parses") {
		t.Fatalf("recovered job = %v, want failed with %q", body, "no longer parses")
	}
	recs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status == nil || recs[0].Status.Status != "failed" || recs[0].Log != nil {
		t.Fatalf("journal after recovery: %+v", recs)
	}
	wal := filepath.Join(dir, "j1.wal")
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	_, ts2 := stateServer(t, dir)
	if again := poll(t, ts2, "j1"); again["status"] != "failed" || again["error"] != body["error"] {
		t.Fatalf("second recovery = %v, want %v", again, body)
	}
	after, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("second recovery wrote to the journal: %d → %d bytes", len(before), len(after))
	}
}
