package net

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	stdnet "net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/wire"
)

// writeTimeoutFor derives the control-frame write deadline from the
// heartbeat timeout: one heartbeat interval's worth, floored so a tiny
// test timeout cannot make writes fail spuriously.
func writeTimeoutFor(hb time.Duration) time.Duration {
	wt := hb / 5
	if wt < 50*time.Millisecond {
		wt = 50 * time.Millisecond
	}
	return wt
}

// jitter returns a seeded random delay in [0, base/2]; jr is owned by one
// supervisor goroutine.
func jitter(jr *rand.Rand, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return time.Duration(jr.Int63n(int64(base)/2 + 1))
}

func hashAddr(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// hostGen is one connected generation of a host: the slots it spawned
// share a failure record, and the first transport loss takes the whole
// generation down — a killed daemon drops every connection at once, and
// the supervisor owns redialing.
type hostGen struct {
	addr string
	d    *dispatcher
	mu   sync.Mutex
	down bool
}

// fail takes the generation down and wakes blocked slots; it reports
// whether this call was the generation's first failure.
func (g *hostGen) fail() bool {
	g.mu.Lock()
	first := !g.down
	g.down = true
	g.mu.Unlock()
	if first {
		g.d.cond.Broadcast()
	}
	return first
}

func (g *hostGen) isDown() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

// superviseHost owns one worker address for the whole run: dial, run a
// generation of slots, and on failure sleep a seeded-jitter backoff that
// doubles up to BackoffMax before redialing. A generation that completes
// an item resets the backoff. The host rejoins the dispatch pool the
// moment a generation connects; it is never retired while the run needs
// it.
func (r *Runner) superviseHost(ctx context.Context, addr string, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker, baseSeed int64) {
	base, maxB := r.backoffBase(), r.backoffMax()
	jr := rand.New(rand.NewSource(baseSeed ^ hashAddr(addr)))
	backoff := base
	fails := 0
	for gen := 0; ; gen++ {
		if d.runOver() || ctx.Err() != nil {
			return
		}
		tk.update(addr, func(h *fleet.HostStats) { h.ConnectAttempts++ })
		conn, hello, err := r.dial(ctx, addr)
		if err != nil {
			fails++
			err = fmt.Errorf("net: host %s: %w", addr, err)
			d.noteErr(err)
			tk.update(addr, func(h *fleet.HostStats) {
				h.ConsecutiveFails = fails
				h.LastErr = err.Error()
			})
			r.logf("%v: redialing in ~%v (attempt %d)", err, backoff, fails)
		} else {
			capacity := hello.Capacity
			tk.update(addr, func(h *fleet.HostStats) {
				h.Connected = true
				h.Capacity = capacity
				if gen > 0 {
					h.Redials++
				}
			})
			d.setConnected(addr, true)
			r.logf("net: host %s: connected, capacity %d", addr, capacity)
			genOK := r.runGeneration(ctx, addr, conn, hello, d, st, req, trackConn, tk)
			d.setConnected(addr, false)
			if genOK {
				fails, backoff = 0, base
			} else {
				fails++
			}
			tk.update(addr, func(h *fleet.HostStats) {
				h.Connected = false
				h.SlotsConnected = 0
				h.ConsecutiveFails = fails
			})
			if d.runOver() {
				return
			}
		}
		d.sleep(ctx, backoff+jitter(jr, backoff))
		if backoff *= 2; backoff > maxB {
			backoff = maxB
		}
	}
}

// runGeneration runs one connected generation: the first connection
// (greeted by hello0) serves as the first slot, and the rest of the
// daemon's advertised capacity is dialed alongside, each slot retrying
// its dial under backoff rather than running the host short. Returns
// whether the generation completed at least one item.
func (r *Runner) runGeneration(ctx context.Context, addr string, conn0 stdnet.Conn, hello0 *wire.HelloFrame, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker) bool {
	g := &hostGen{addr: addr, d: d}
	var wg sync.WaitGroup
	var ok atomic.Bool
	runSlotConn := func(c stdnet.Conn, hello *wire.HelloFrame) {
		trackConn(c, true)
		tk.update(addr, func(h *fleet.HostStats) {
			h.SlotsConnected++
			h.SlotShortfall = h.Capacity - h.SlotsConnected
		})
		defer func() {
			tk.update(addr, func(h *fleet.HostStats) { h.SlotsConnected-- })
			trackConn(c, false)
			c.Close()
		}()
		if r.runSlot(ctx, g, c, hello, d, st, req) {
			ok.Store(true)
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		runSlotConn(conn0, hello0)
	}()
	for slot := 1; slot < hello0.Capacity; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			backoff, maxB := r.backoffBase(), r.backoffMax()
			for {
				if g.isDown() || d.runOver() || ctx.Err() != nil {
					return
				}
				c, hello, err := r.dial(ctx, addr)
				if err == nil {
					runSlotConn(c, hello)
					return
				}
				tk.update(addr, func(h *fleet.HostStats) {
					h.SlotShortfall = h.Capacity - h.SlotsConnected
					h.LastErr = err.Error()
				})
				r.logf("net: host %s: slot %d dial failed (%v); retrying in %v", addr, slot, err, backoff)
				d.sleep(ctx, backoff)
				if backoff *= 2; backoff > maxB {
					backoff = maxB
				}
			}
		}()
	}
	wg.Wait()
	return ok.Load()
}

// dial connects to a worker daemon and completes the hello handshake,
// returning the connection and the worker's hello (capacity and held
// predictors).
func (r *Runner) dial(ctx context.Context, addr string) (stdnet.Conn, *wire.HelloFrame, error) {
	timeout := r.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	conn, err := (&stdnet.Dialer{Timeout: timeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	f, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if f.Type != wire.TypeHello {
		conn.Close()
		return nil, nil, fmt.Errorf("hello: expected a %s frame, got %s", wire.TypeHello, f.Type)
	}
	if f.Hello.Proto != wire.Version {
		conn.Close()
		return nil, nil, fmt.Errorf("hello: protocol version %d, want %d", f.Hello.Proto, wire.Version)
	}
	return conn, f.Hello, nil
}

// runSlot is one in-flight-shard lane on one connection: claim an
// attempt, ship it, merge the stream, repeat. A transport failure takes the
// generation down, requeues the attempt's unreported jobs and hands the
// connection back; worker-side error frames are deterministic failures
// and are not retried. Returns whether the slot completed an item.
//
// Every request names the run's predictor by ID; its document crosses
// the connection at most once, and not at all when the worker's hello
// listed the ID. A redialed slot is a new connection and trusts only its
// own hello.
func (r *Runner) runSlot(ctx context.Context, g *hostGen, conn stdnet.Conn, hello *wire.HelloFrame, d *dispatcher, st *runState, req baseRequest) (completed bool) {
	maxRetries := r.maxRetries()
	hbTimeout := r.hbTimeout()
	writeTO := writeTimeoutFor(hbTimeout)
	predHeld := req.pred == nil || slices.Contains(hello.Predictors, req.pred.ID())
	for {
		if g.isDown() || ctx.Err() != nil {
			return completed
		}
		at := d.next(g.addr, g)
		if at == nil {
			return completed
		}
		ship := !predHeld
		err := r.streamItem(conn, at.item.specs, st, req, ship, hbTimeout)
		if ship {
			// Whatever the outcome, the document went out: a worker error
			// means the worker read it, and a transport loss ends this
			// connection.
			predHeld = true
			d.tk.update(g.addr, func(h *fleet.HostStats) { h.PredictorShips++ })
		}
		if err == nil {
			d.settle(at, true)
			completed = true
			continue
		}
		var werr workerError
		if errors.As(err, &werr) {
			// The worker rejected the request deterministically (bad
			// predictor, bad frame): retrying elsewhere reproduces the same
			// failure. The connection stays usable.
			st.failSpecs(at.item.specs, err)
			d.settle(at, false)
			continue
		}
		// Transport loss. Attribute the right cause, take the generation
		// down so the supervisor redials, and give the unreported jobs to
		// another attempt — unless the run is cancelled or the item is out
		// of attempts.
		if ctx.Err() != nil {
			// Best-effort cancel so a surviving worker stops burning cores;
			// the deadline poke already unblocked our read.
			conn.SetWriteDeadline(time.Now().Add(writeTO))
			wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeCancel})
			return completed
		}
		err = fmt.Errorf("net: host %s: %w", g.addr, err)
		if g.fail() {
			d.tk.update(g.addr, func(h *fleet.HostStats) { h.LastErr = err.Error() })
			r.logf("%v: connection lost; host backing off for redial", err)
		}
		retry := st.unreported(at.item.specs)
		requeue, exhausted, attempts := d.lose(at, retry, maxRetries, err)
		switch {
		case exhausted:
			st.failSpecs(retry, fmt.Errorf("%w (retries exhausted)", err))
		case requeue:
			r.logf("net: host %s: requeueing %d unreported jobs (attempt %d)", g.addr, len(retry), attempts)
		}
		return completed
	}
}

// workerError wraps a worker-side error frame: deterministic, not
// retryable.
type workerError struct{ msg string }

func (e workerError) Error() string { return e.msg }

// streamItem ships one attempt's specs as a shard request and merges the
// frames streaming back until the worker's done frame. Heartbeats (and
// any other traffic) refresh the read deadline; hbTimeout of silence is a
// transport failure. The request names the run's predictor by ID, and
// ship adds its document.
func (r *Runner) streamItem(conn stdnet.Conn, specs []fleet.JobSpec, st *runState, req baseRequest, ship bool, hbTimeout time.Duration) error {
	sreq := &wire.ShardRequest{
		Workers:     req.workers,
		WantSamples: req.wantSamples,
	}
	sreq.SetJobs(specs)
	if req.pred != nil {
		sreq.PredictorID = req.pred.ID()
		if ship {
			sreq.Predictor = req.pred.Doc()
		}
	}
	conn.SetWriteDeadline(time.Now().Add(hbTimeout))
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: sreq}); err != nil {
		return fmt.Errorf("send shard: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	for {
		conn.SetReadDeadline(time.Now().Add(hbTimeout))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			var nerr stdnet.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return fmt.Errorf("no heartbeat for %v: %w", hbTimeout, err)
			}
			return err
		}
		switch f.Type {
		case wire.TypeHeartbeat:
			// Liveness pulse only; the deadline reset above is the point.
		case wire.TypeSample:
			st.sample(f.Sample.Job, f.Sample.Samples)
		case wire.TypeResult:
			st.result(f.Result)
		case wire.TypeDone:
			conn.SetReadDeadline(time.Time{})
			return nil
		case wire.TypeError:
			conn.SetReadDeadline(time.Time{})
			return workerError{msg: fmt.Sprintf("worker: %s", f.Err)}
		default:
			return fmt.Errorf("unexpected %s frame mid-shard", f.Type)
		}
	}
}
