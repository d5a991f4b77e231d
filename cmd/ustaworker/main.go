// Command ustaworker executes fleet shards for a coordinator. It speaks
// one protocol — hello, shard requests answered with streamed sample and
// result frames, heartbeats, done — over one of two transports:
//
//   - Pipe mode (default): serve the coordinator that spawned it over
//     stdin/stdout, with capacity 1, until the coordinator closes stdin. A
//     shard coordinator (repro.NewShardRunner / ustasim -shards) spawns
//     workers by re-executing its own binary by default; point the
//     runner's Command at a built ustaworker to decouple the coordinator
//     from the worker build. A worker that dies mid-shard is respawned and
//     its unreported jobs retried.
//   - Daemon mode (-listen host:port): a long-lived TCP worker serving
//     shard requests from a networked coordinator (repro.NewNetRunner /
//     ustasim -hosts / ustafleetd -hosts). The daemon advertises its
//     -capacity in a hello handshake and executes up to that many shards
//     concurrently, across any number of connections.
//
// A pipe worker ignores SIGTERM/SIGINT: its coordinator decides whether
// in-flight shards finish or are cancelled, and the worker exits 0 when
// the coordinator closes its stdin (1 after a protocol error). In daemon
// mode the first SIGTERM/SIGINT drains: the daemon stops accepting, lets
// every in-flight shard finish and send its done frame, then exits 0. A
// second signal cancels the shards still running; their coordinators
// get error frames. A coordinator that loses a worker marks the host
// dead and re-dispatches its unreported jobs elsewhere.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet/net"
)

func main() {
	var (
		listen   = flag.String("listen", "", "serve shards as a TCP daemon on this host:port (empty: serve the spawning coordinator over stdin/stdout)")
		capacity = flag.Int("capacity", 0, "daemon mode: concurrent shard limit advertised to coordinators (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "daemon mode: log connection and shard events to stderr")
	)
	flag.Parse()

	if *listen == "" {
		// The coordinator owns a pipe worker's lifetime: a Ctrl-C that
		// reaches the whole process group must not cut a shard short
		// behind its back.
		signal.Ignore(os.Interrupt, syscall.SIGTERM)
		if net.ServeStdio(context.Background()) != nil {
			os.Exit(1)
		}
		return
	}

	// Room for both signals serve acts on: drain, then cancel.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	s := &net.Server{Capacity: *capacity}
	if *verbose {
		s.Logf = log.New(os.Stderr, "ustaworker: ", log.LstdFlags).Printf
	}
	ln, err := stdnet.Listen("tcp", *listen)
	if err == nil {
		err = serve(s, ln, sigs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustaworker:", err)
		os.Exit(1)
	}
}

// serve runs the daemon on ln until it has drained. The first signal on
// sigs starts a graceful Server.Shutdown; a second cancels the shards
// still in flight.
func serve(s *net.Server, ln stdnet.Listener, sigs <-chan os.Signal) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
			return
		}
		go s.Shutdown()
		select {
		case <-sigs:
			cancel()
		case <-ctx.Done():
		}
	}()
	return s.Serve(ctx, ln)
}
