// Package net is the fleet's one dispatch coordinator and its worker
// side: versioned length-prefixed frames of internal/fleet/wire over TCP.
// Three layers live here:
//
//   - Server: the worker side of the protocol, a long-lived daemon
//     (`ustaworker -listen addr`) that accepts TCP connections. It
//     answers a hello handshake (protocol version + shard capacity),
//     executes ShardRequest frames, streams sample/result frames back,
//     and pulses heartbeats while a shard runs.
//   - Runner: the coordinator, a fleet.Runner over a static inventory of
//     TCP daemons (New) with liveness (heartbeat read deadlines),
//     per-worker in-flight caps, and retry-on-worker-loss that
//     re-dispatches only the unreported jobs of a lost shard. Seeds are resolved coordinator-side through
//     fleet.EffectiveSeed, so a distributed run is byte-identical to
//     LocalRunner — even after a worker dies mid-shard and its jobs are
//     retried elsewhere. Run returns each run's fleet.RunStats.
//   - JobServer: a persistent submit/poll/cancel HTTP job service
//     (`ustafleetd`) with token-bucket admission on job intake, whose
//     telemetry endpoint streams JSONL merged into submission order by
//     Bus.
package net

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
)

// DefaultHeartbeatInterval is how often a busy worker pulses a heartbeat
// frame. The coordinator's default read deadline is several intervals, so
// one delayed pulse never kills a healthy worker.
const DefaultHeartbeatInterval = 2 * time.Second

// Server is the worker side of the protocol over TCP (Serve). The zero
// value is usable; Capacity and HeartbeatInterval default at serve time.
type Server struct {
	// Capacity is the daemon's concurrent-shard limit, advertised in the
	// hello handshake and enforced with a semaphore across connections
	// (<= 0: GOMAXPROCS). The coordinator opens at most Capacity
	// simultaneous dispatch slots per host.
	Capacity int
	// HeartbeatInterval is the pulse period while a shard executes
	// (<= 0: DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// Logf, when set, receives one line per connection-level event (accept,
	// shard served, protocol error). Nil is silent.
	Logf func(format string, args ...any)

	preds    predictorStore
	mu       sync.Mutex
	ln       stdnet.Listener
	conns    map[stdnet.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// capacity resolves the advertised concurrent-shard limit.
func (s *Server) capacity() int { return fleet.NormalizeWorkers(s.Capacity) }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections on ln until ctx is cancelled or Shutdown is
// called, then waits for in-flight shards to finish. It returns nil on a
// clean shutdown.
func (s *Server) Serve(ctx context.Context, ln stdnet.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("net: server already serving")
	}
	s.ln = ln
	s.conns = make(map[stdnet.Conn]struct{})
	s.mu.Unlock()

	// Shard executions across all connections share one capacity-wide
	// semaphore; extra connections queue instead of oversubscribing.
	sem := make(chan struct{}, s.capacity())

	stop := context.AfterFunc(ctx, func() { s.Shutdown() })
	defer stop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			s.wg.Wait()
			if draining || ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handleConn(ctx, conn, sem)
		}()
	}
}

// Shutdown drains the daemon gracefully: stop accepting, let every
// in-flight shard finish and flush its frames, then close the connections.
// Safe to call concurrently and repeatedly.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Idle connections sit in a blocking read with no shard to finish;
	// close them so their handlers return. Busy handlers notice draining
	// after the in-flight shard completes.
	s.mu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*stdnet.TCPConn); ok {
			tc.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// inFrame is one read outcome from a connection's reader goroutine: a
// frame, or the error that ended the stream.
type inFrame struct {
	f   *wire.Frame
	err error
}

// handleConn speaks the daemon side of the protocol on one connection:
// hello, then a sequence of shard requests, each answered with streamed
// sample/result frames, heartbeats while busy, and a done (or error)
// frame. The hello lists the predictors the server holds, and the
// connection pins them along with every document it carries, so a
// request may name a pinned predictor by ID alone (see
// resolvePredictor). A cancel frame aborts the in-flight shard; a closed
// connection does the same (the coordinator is gone — stop burning
// cores).
//
// All reads flow through one reader goroutine feeding a channel, so the
// mid-shard cancel watcher and the between-shards request loop never
// contend for the stream (a polled read deadline could desync the frame
// boundary by timing out mid-frame).
//
// It returns when the peer hangs up, ctx is cancelled, the server drains,
// or a protocol violation or write failure ends the connection.
func (s *Server) handleConn(ctx context.Context, conn stdnet.Conn, sem chan struct{}) {
	var wmu sync.Mutex
	write := func(f *wire.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return wire.WriteFrame(conn, f)
	}
	held, pinned := s.preds.pins()
	if err := write(&wire.Frame{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.HelloFrame{Proto: wire.Version, Capacity: s.capacity(), Predictors: held}}); err != nil {
		s.logf("net: %s: hello: %v", conn.RemoteAddr(), err)
		return
	}

	frames := make(chan inFrame)
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		defer close(frames)
		for {
			f, err := wire.ReadFrame(conn)
			select {
			case frames <- inFrame{f, err}:
			case <-connDone:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	hb := s.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	for {
		var in inFrame
		var ok bool
		select {
		case in, ok = <-frames:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		if in.err != nil {
			if !errors.Is(in.err, io.EOF) && !errors.Is(in.err, stdnet.ErrClosed) && !errors.Is(in.err, io.ErrUnexpectedEOF) {
				// A malformed frame is a protocol violation, not a crash:
				// report it and drop the connection.
				write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: in.err.Error()})
				s.logf("net: %s: %v", conn.RemoteAddr(), in.err)
				return
			}
			return
		}
		switch in.f.Type {
		case wire.TypeCancel, wire.TypeHeartbeat:
			// Nothing in flight; ignore.
			continue
		case wire.TypeShard:
		default:
			err := fmt.Errorf("expected a %s frame, got %s", wire.TypeShard, in.f.Type)
			write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: err.Error()})
			s.logf("net: %s: %v", conn.RemoteAddr(), err)
			return
		}

		req := in.f.Shard
		pred, err := s.resolvePredictor(req, pinned)
		if err != nil {
			// Deterministic and the request's fault, not the stream's:
			// refuse the request, keep the connection.
			if werr := write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: err.Error()}); werr != nil {
				return
			}
			s.logf("net: %s: %v", conn.RemoteAddr(), err)
			continue
		}

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		err = s.serveShard(ctx, req, pred, write, frames, hb)
		<-sem
		if err != nil {
			if werr := write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: err.Error()}); werr != nil {
				return
			}
			s.logf("net: %s: shard failed: %v", conn.RemoteAddr(), err)
			continue
		}
		if err := write(&wire.Frame{V: wire.Version, Type: wire.TypeDone}); err != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// serveShard executes one shard with heartbeats pulsing and a concurrent
// watcher consuming the connection's frame channel for cancel requests (a
// read error there means the coordinator vanished — same response: cancel
// the shard).
func (s *Server) serveShard(ctx context.Context, req *wire.ShardRequest, pred *core.Predictor, write func(*wire.Frame) error, frames <-chan inFrame, hb time.Duration) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The worker splits its own cores across its capacity when the
	// coordinator left the pool width unset: a remote coordinator cannot
	// know this host's GOMAXPROCS.
	if req.Workers <= 0 {
		req.Workers = (runtime.GOMAXPROCS(0) + s.capacity() - 1) / s.capacity()
	}

	// Heartbeat pulse: keeps the coordinator's read deadline fed through
	// long, telemetry-free stretches of a shard.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if write(&wire.Frame{V: wire.Version, Type: wire.TypeHeartbeat}) != nil {
					cancel()
					return
				}
			case <-done:
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case in, ok := <-frames:
				if !ok || in.err != nil {
					// During a graceful drain, Shutdown closes the read side
					// of every connection — that must not abort the in-flight
					// shard (a dead coordinator still surfaces as write
					// failures). Outside a drain, a lost read side means the
					// coordinator is gone: stop burning cores.
					if !s.isDraining() {
						cancel()
					}
					return
				}
				if in.f.Type == wire.TypeCancel {
					cancel()
					return
				}
				// Any other frame mid-shard is out of protocol; tolerate it
				// rather than corrupting a running shard.
			case <-done:
				return
			}
		}
	}()

	err := serveRequest(runCtx, req, pred, write)

	close(done)
	wg.Wait()
	if err == nil && runCtx.Err() != nil && ctx.Err() == nil {
		// The coordinator cancelled or vanished mid-shard; per-job context
		// errors already streamed (best effort). Surface it as a shard-level
		// error frame instead of a done frame.
		return runCtx.Err()
	}
	return err
}
