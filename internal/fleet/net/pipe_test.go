package net_test

// Pipe-runner tests: the coordinator spawns its workers as processes and
// speaks the daemon protocol over their stdio.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/workload"
)

// TestMain lets the test binary double as the pipe worker: a pipe
// runner's default Command re-executes the current executable with the
// worker environment set, and PipeMain serves the coordinator instead of
// running tests.
func TestMain(m *testing.M) {
	fleetnet.PipeMain()
	os.Exit(m.Run())
}

// shard is how the TestShardRunner pins spell the pipe runner:
// shard.New(n) spawns n workers.
var shard = struct{ New func(int) *fleetnet.Runner }{fleetnet.NewPipe}

// TestShardRunnerMatchesLocal is the shard determinism contract: the same
// batch through 1-or-many worker processes must be byte-identical to the
// in-process pool — results, seeds, and the telemetry stream.
func TestShardRunnerMatchesLocal(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 2, Seed: 42}

	run := func(r fleet.Runner) ([]fleet.JobResult, *tally) {
		tl := &tally{counts: map[int]int{}, sums: map[int]float64{}}
		c := cfg
		c.Sink = tl.sink()
		if r == nil {
			r = fleet.LocalRunner{}
		}
		got, _ := r.Run(context.Background(), c, specJobs(n, true))
		return got, tl
	}

	ref, refTally := run(nil)
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		got, gotTally := run(shard.New(procs))
		if err := fleet.FirstError(got); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range ref {
			a, b := ref[i], got[i]
			if b.Index != a.Index || b.Name != a.Name || b.SeedUsed != a.SeedUsed {
				t.Fatalf("procs=%d job %d: metadata diverged: %+v vs %+v", procs, i, b, a)
			}
			if b.Result.EnergyJ != a.Result.EnergyJ || b.Result.MaxSkinC != a.Result.MaxSkinC ||
				b.Result.AvgFreqMHz != a.Result.AvgFreqMHz || b.Result.WorkDone != a.Result.WorkDone {
				t.Fatalf("procs=%d job %d: aggregates diverged", procs, i)
			}
		}
		for i := 0; i < n; i++ {
			if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
				t.Fatalf("procs=%d job %d: telemetry diverged: %d/%v samples vs local %d/%v",
					procs, i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
			}
		}
	}
}

// TestShardRunnerProgress: OnProgress and OnResult fire once per job across
// all shards, serialized, ending at (total, total).
func TestShardRunnerProgress(t *testing.T) {
	jobs := specJobs(5, true)
	var dones []int
	var names []string
	cfg := fleet.Config{
		Workers:    1,
		Seed:       7,
		OnProgress: func(done, total int) { dones = append(dones, done*100+total) },
		OnResult:   func(r fleet.JobResult) { names = append(names, r.Name) },
	}
	results, _ := shard.New(2).Run(context.Background(), cfg, jobs)
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(jobs) || len(names) != len(jobs) {
		t.Fatalf("progress %d / results %d callbacks, want %d", len(dones), len(names), len(jobs))
	}
	for i, d := range dones {
		if d != (i+1)*100+len(jobs) {
			t.Fatalf("progress call %d = %d, want done=%d total=%d", i, d, i+1, len(jobs))
		}
	}
}

// TestShardRunnerSpeclessJobs: jobs without a serializable spec fail alone
// with a descriptive error while spec'd neighbors complete.
func TestShardRunnerSpeclessJobs(t *testing.T) {
	jobs := specJobs(4, true)
	jobs[2].Spec = nil
	results, _ := shard.New(2).Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, jobs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "no serializable spec") {
				t.Fatalf("spec-less job err = %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d should have survived: %v", i, r.Err)
		}
	}
}

// TestShardRunnerWorkerCrash: a worker dying mid-shard is respawned and
// its unreported jobs retried — every job succeeds, byte-identical to the
// local runner, telemetry included, and the stats show the redial.
func TestShardRunnerWorkerCrash(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 1, Seed: 42}
	ref, refTally := localRef(t, cfg, n)

	// One worker, so the items after the crash need a respawned one. The
	// fault injector kills the worker right after it reports global job 0;
	// Workers=1 makes that the first result of the first shard, so the
	// rest of that shard goes unreported and is retried. A retry never
	// carries job 0 again, so the respawned worker survives.
	r := fleetnet.NewPipe(1)
	r.Logf = t.Logf
	t.Setenv("USTA_WORKER_CRASH_ON_INDEX", "0")
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := r.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "crash", ref, got, refTally, tl)
	if st.Hosts[0].Redials < 1 {
		t.Fatalf("the crashed worker was not respawned: %s", st)
	}
}

// TestShardRunnerCancellation: a cancelled context tears the workers down
// and marks every unfinished job with the context error, matching the
// local runner's semantics (finished jobs keep their results).
func TestShardRunnerCancellation(t *testing.T) {
	longJobs := func(n int) []fleet.Job {
		jobs := make([]fleet.Job, n)
		for i := range jobs {
			spec := &fleet.JobSpec{
				Workload:  fleet.WorkloadRef{Name: "skype", Seed: 1},
				DurSec:    1800,
				TraceFree: true,
			}
			jobs[i] = fleet.Job{
				Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
				DurSec:    spec.DurSec,
				TraceFree: true,
				Spec:      spec,
			}
		}
		return jobs
	}

	// Pre-cancelled context: nothing runs, every job carries the context
	// error — deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre, _ := shard.New(2).Run(ctx, fleet.Config{Workers: 1, Seed: 1}, longJobs(4))
	for i, r := range pre {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("pre-cancelled: job %d err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-run cancellation: the simulator may finish some jobs before the
	// deadline fires (it runs far faster than wall-clock), so assert the
	// invariant, not the count — every job either completed cleanly or was
	// cancelled, and the run returned promptly after the cancel.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	results, _ := shard.New(2).Run(ctx2, fleet.Config{Workers: 1, Seed: 1}, longJobs(400))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v after cancellation; workers were not torn down", elapsed)
	}
	cancelled := 0
	for i, r := range results {
		switch {
		case r.Err == nil && r.Result != nil:
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("job %d: unexpected outcome err=%v result=%v", i, r.Err, r.Result != nil)
		}
	}
	if cancelled == 0 {
		t.Fatal("400 long jobs all finished before a 30ms cancel; expected at least one cancellation")
	}
}

// TestShardRunnerBadCommand: an unlaunchable worker fails every job with
// the spawn error at once — a respawn would fail the same way, so the run
// does not wait out the all-dead deadline.
func TestShardRunnerBadCommand(t *testing.T) {
	r := shard.New(1)
	r.Command = []string{"/nonexistent/ustaworker"}
	start := time.Now()
	results, _ := r.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(2, true))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v to give up on an unlaunchable worker", elapsed)
	}
	for i, res := range results {
		if res.Err == nil || !strings.Contains(res.Err.Error(), "/nonexistent/ustaworker") {
			t.Fatalf("job %d should carry the spawn failure, got %v", i, res.Err)
		}
	}
}

// TestPipeWorkerDeathQuotesStderr: a worker that dies reports how, with
// the tail of its stderr, in the errors of the jobs it strands.
func TestPipeWorkerDeathQuotesStderr(t *testing.T) {
	r := fleetnet.NewPipe(1)
	r.Command = []string{"sh", "-c", "echo 'worker: config unreadable' >&2; exit 7"}
	results, _ := r.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(2, true))
	for i, res := range results {
		if res.Err == nil || !strings.Contains(res.Err.Error(), "exit status 7") ||
			!strings.Contains(res.Err.Error(), "stderr: worker: config unreadable") {
			t.Fatalf("job %d: err = %v, want the exit status and stderr tail", i, res.Err)
		}
	}
}

// TestPipeItemsFillWorkerPool: a pipe worker runs one work item at a
// time, so an item smaller than its pool would idle cores. With Workers
// unset, 2 workers on 8 procs get a pool 4 wide each; 6 jobs (fewer than
// four items per host could fill) must go out as 2 items — 4 jobs and 2 —
// so all 6 run at once, not as 6 single-job items, 2 at a time.
func TestPipeItemsFillWorkerPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 6
	cfg := fleet.Config{Seed: 42}
	ref, refTally := localRef(t, cfg, n)

	r := fleetnet.NewPipe(2)
	r.HedgeAfter = -1
	tl := newTally()
	c := cfg
	c.Sink = tl.sink()
	got, st := r.Run(context.Background(), c, specJobs(n, true))
	assertIdentical(t, "pipe", ref, got, refTally, tl)
	items := 0
	for _, h := range st.Hosts {
		items += h.ItemsCompleted
	}
	if items != 2 {
		t.Fatalf("%d work items for %d jobs on pools 4 wide, want 2: %s", items, n, st)
	}
}
