// Command ustaworker executes fleet shards for a coordinator: a
// long-lived TCP worker daemon (-listen host:port, required) serving shard
// requests from a networked coordinator (repro.NewNetRunner /
// ustasim -hosts / ustafleetd -hosts). It speaks one protocol — hello,
// shard requests answered with streamed sample and result frames,
// heartbeats, done. The daemon advertises its -capacity in the hello
// handshake and executes up to that many shards concurrently, across any
// number of connections.
//
// The first SIGTERM/SIGINT drains: the daemon stops accepting, lets every
// in-flight shard finish and send its done frame, then exits 0. A second
// signal cancels the shards still running; their coordinators get error
// frames. A coordinator that loses a worker marks the host dead and
// re-dispatches its unreported jobs elsewhere.
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
		listen   = flag.String("listen", "", "serve shards as a TCP daemon on this host:port (required)")
		capacity = flag.Int("capacity", 0, "concurrent shard limit advertised to coordinators (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "log connection and shard events to stderr")
	)
	flag.Parse()

	if *listen == "" {
		fmt.Fprintln(os.Stderr, "ustaworker: -listen is required")
		flag.Usage()
		os.Exit(2)
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
