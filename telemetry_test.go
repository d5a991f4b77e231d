package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/net/chaos"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
	"repro/internal/workload"
)

// multiFrameJobs are spec-carrying jobs long enough that each one's
// telemetry crosses a worker connection in four sample frames (three full
// wire.SampleBatch frames and a remainder).
func multiFrameJobs(n int) []fleet.Job {
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		spec := &fleet.JobSpec{
			Name:     fmt.Sprintf("long-%d", i),
			Workload: fleet.WorkloadRef{Name: []string{"skype", "game", "youtube"}[i%3], Seed: uint64(i)},
			DurSec:   3*wire.SampleBatch + 32,
		}
		jobs[i] = fleet.Job{
			Name:      spec.Name,
			Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
			DurSec:    spec.DurSec,
			TraceFree: true,
			Spec:      spec,
		}
	}
	return jobs
}

// TestMultiFrameTelemetryIdenticalAcrossRunners pins per-job telemetry
// sequences — every sample, in order, bit for bit — for jobs spanning
// several sample frames, across the local runner, the TCP runner, and
// the TCP runner under seeded fault schedules that cut each faulty
// connection between two sample frames of the same job (so the
// coordinator must drop a lost attempt's partial telemetry and take the
// retry's whole).
func TestMultiFrameTelemetryIdenticalAcrossRunners(t *testing.T) {
	const n = 6
	run := func(t *testing.T, r fleet.Runner) map[int][]byte {
		t.Helper()
		var mu sync.Mutex
		seqs := map[int][]byte{}
		cfg := fleet.Config{Workers: 2, Seed: 11, Runner: r, Sink: sink.Func(func(id sink.JobID, s device.Sample) {
			mu.Lock()
			seqs[int(id)] = wire.PackSample(seqs[int(id)], s)
			mu.Unlock()
		})}
		if err := fleet.FirstError(fleet.New(cfg).Run(context.Background(), multiFrameJobs(n))); err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	want := run(t, fleet.LocalRunner{})
	for i := 0; i < n; i++ {
		if got := len(want[i]) / wire.SampleSize; got <= 3*wire.SampleBatch {
			t.Fatalf("job %d emits %d samples; the pin needs more than %d", i, got, 3*wire.SampleBatch)
		}
	}
	check := func(t *testing.T, got map[int][]byte) {
		t.Helper()
		for i := 0; i < n; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("job %d: %d samples, not bit-identical to the local runner's %d",
					i, len(got[i])/wire.SampleSize, len(want[i])/wire.SampleSize)
			}
		}
	}

	t.Run("net", func(t *testing.T) { check(t, run(t, fleetnet.New([]string{startNetDaemon(t, 2)}))) })

	// Worker frames on a connection serving one-job shards: 1 is the
	// hello, 2–5 the job's sample frames, 6 its result. Cutting after
	// frame 2–4, or corrupting or truncating frame 3–5, always lands
	// between two sample frames of one job.
	for seed := 1; seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("chaos/seed=%d", seed), func(t *testing.T) {
			sched := &chaos.Schedule{Override: func(conn int) (chaos.Plan, bool) {
				if conn >= 2 {
					return chaos.Plan{Kind: chaos.FaultNone}, true
				}
				at := 2 + (seed+conn)%3
				switch seed % 3 {
				case 0:
					return chaos.Plan{Kind: chaos.FaultDrop, DropAfterFrames: at}, true
				case 1:
					return chaos.Plan{Kind: chaos.FaultCorrupt, CorruptFrame: at + 1}, true
				default:
					return chaos.Plan{Kind: chaos.FaultTruncate, TruncateFrame: at + 1}, true
				}
			}}
			p, err := chaos.Start(startNetDaemon(t, 1), sched, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			nr := fleetnet.New([]string{p.Addr()})
			nr.ShardSize = 1
			nr.MaxRetries = 100
			nr.BackoffBase = 10 * time.Millisecond
			nr.BackoffMax = 100 * time.Millisecond
			nr.HeartbeatTimeout = 2 * time.Second
			check(t, run(t, nr))
			if s := p.Stats(); s.Drops+s.Corrupted+s.Truncated != 2 {
				t.Fatalf("proxy injected %+v; want both faulty connections cut mid-job", s)
			}
		})
	}
}
