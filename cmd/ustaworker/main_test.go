package main

import (
	stdnet "net"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/net"
	"repro/internal/fleet/wire"
)

// startDaemon serves a capacity-1 daemon on a loopback port, sends it one
// shard of two long tick-loop jobs and waits for the first job's result,
// so the second is in flight. It returns the connection, the signal
// channel and serve's result.
func startDaemon(t *testing.T) (stdnet.Conn, chan<- os.Signal, <-chan error) {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 2)
	served := make(chan error, 1)
	go func() { served <- serve(&net.Server{Capacity: 1}, ln, sigs) }()

	conn, err := stdnet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeHello {
		t.Fatalf("hello: %v (%+v)", err, f)
	}
	// An omitted event code is the fixed-tick loop, which steps the
	// 90-minute AnTuTu run one second at a time: the second job keeps
	// running well past the signal.
	var specs []fleet.JobSpec
	for i := 0; i < 2; i++ {
		specs = append(specs, fleet.JobSpec{Index: i, Workload: fleet.WorkloadRef{Name: "antutu-cpu-90min", Seed: uint64(i)},
			Seed: int64(i + 1), TraceFree: true})
	}
	req := &wire.ShardRequest{Workers: 1}
	req.SetJobs(specs)
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == wire.TypeResult {
			if f.Result.Err != "" {
				t.Fatalf("job %d failed: %s", f.Result.Index, f.Result.Err)
			}
			return conn, sigs, served
		}
	}
}

// rest reads the shard's remaining frames up to its done or error frame
// and returns that frame with the per-job errors seen on the way.
func rest(t *testing.T, conn stdnet.Conn) (end *wire.Frame, jobErrs []string) {
	t.Helper()
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("stream broke before the shard ended: %v", err)
		}
		switch f.Type {
		case wire.TypeResult:
			if f.Result.Err != "" {
				jobErrs = append(jobErrs, f.Result.Err)
			}
		case wire.TypeDone, wire.TypeError:
			return f, jobErrs
		}
	}
}

// TestSignalDrainsInFlightShard: the daemon's first SIGTERM lets the
// in-flight shard finish — its last job succeeds and the done frame
// arrives — and serve then returns cleanly.
func TestSignalDrainsInFlightShard(t *testing.T) {
	conn, sigs, served := startDaemon(t)
	sigs <- syscall.SIGTERM
	if end, errs := rest(t, conn); end.Type != wire.TypeDone || len(errs) != 0 {
		t.Fatalf("shard ended with %+v and job errors %v; want done and none", end, errs)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSecondSignalCancels: a second signal during the drain cancels the
// in-flight shard instead of waiting for it.
func TestSecondSignalCancels(t *testing.T) {
	conn, sigs, served := startDaemon(t)
	sigs <- syscall.SIGTERM
	sigs <- syscall.SIGINT
	if end, errs := rest(t, conn); end.Type != wire.TypeError && len(errs) == 0 {
		t.Fatalf("shard ended with %+v and no job errors; want it cancelled", end)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
