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
	err  error
}

// fail records the generation's first failure and wakes blocked slots.
func (g *hostGen) fail(err error) bool {
	g.mu.Lock()
	first := !g.down
	if first {
		g.down = true
		g.err = err
	}
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
// generation of slots, and on failure back off exponentially (seeded
// jitter) and redial — opening the circuit breaker after consecutive
// failures and probing half-open after a cooldown. The host rejoins the
// dispatch pool the moment a generation connects; it is never retired
// while the run needs it.
func (r *Runner) superviseHost(ctx context.Context, addr string, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker, baseSeed int64) {
	base, maxB := r.backoffBase(), r.backoffMax()
	kOpen := breakerThreshold
	coolBase := r.breakerCooldown()
	jr := rand.New(rand.NewSource(baseSeed ^ hashAddr(addr)))
	backoff, cooldown := base, coolBase
	fails := 0
	breaker := BreakerClosed
	note := func(err error) {
		tk.update(addr, func(h *fleet.HostStats) {
			h.Breaker = breaker
			h.ConsecutiveFails = fails
			if err != nil {
				h.LastErr = err.Error()
			}
		})
	}
	for gen := 0; ; gen++ {
		if d.runOver() || ctx.Err() != nil {
			return
		}
		if breaker == BreakerOpen {
			note(nil)
			r.logf("net: host %s: breaker open after %d consecutive failures; cooling down %v", addr, fails, cooldown)
			d.sleep(ctx, cooldown+jitter(jr, cooldown))
			if cooldown *= 2; cooldown > 4*maxB {
				cooldown = 4 * maxB
			}
			breaker = BreakerHalfOpen
			note(nil)
			continue
		}
		tk.update(addr, func(h *fleet.HostStats) { h.ConnectAttempts++ })
		conn, hello, err := r.dial(ctx, addr)
		if err != nil {
			fails++
			err = fmt.Errorf("net: host %s: %w", addr, err)
			d.noteErr(err)
			if fails >= kOpen {
				breaker = BreakerOpen
				note(err)
				continue
			}
			note(err)
			r.logf("%v: redialing in ~%v (attempt %d)", err, backoff, fails)
			d.sleep(ctx, backoff+jitter(jr, backoff))
			if backoff *= 2; backoff > maxB {
				backoff = maxB
			}
			continue
		}
		halfOpen := breaker == BreakerHalfOpen
		capacity := hello.Capacity
		tk.update(addr, func(h *fleet.HostStats) {
			h.Connected = true
			h.Capacity = capacity
			if gen > 0 {
				h.Redials++
			}
		})
		d.setConnected(addr, true)
		if halfOpen {
			r.logf("net: host %s: reconnected (half-open probe), capacity %d", addr, capacity)
		} else {
			r.logf("net: host %s: connected, capacity %d", addr, capacity)
		}
		genOK := r.runGeneration(ctx, addr, conn, hello, halfOpen, d, st, req, trackConn, tk)
		d.setConnected(addr, false)
		tk.update(addr, func(h *fleet.HostStats) {
			h.Connected = false
			h.SlotsConnected = 0
		})
		if genOK {
			fails, backoff, cooldown = 0, base, coolBase
			breaker = BreakerClosed
		} else {
			fails++
			if fails >= kOpen {
				breaker = BreakerOpen
			}
		}
		note(nil)
		if d.runOver() {
			return
		}
		if breaker != BreakerOpen {
			d.sleep(ctx, backoff+jitter(jr, backoff))
			if backoff *= 2; backoff > maxB {
				backoff = maxB
			}
		}
	}
}

// runGeneration runs one connected generation: the probe connection
// (greeted by hello0) serves as the first slot, and the rest of the
// daemon's advertised capacity is dialed alongside — with per-slot retry
// instead of silently running short. A half-open generation starts with
// just the probe slot and expands to full capacity on its first completed
// item (which also closes the breaker). Returns whether the generation
// completed at least one item.
func (r *Runner) runGeneration(ctx context.Context, addr string, conn0 stdnet.Conn, hello0 *wire.HelloFrame, halfOpen bool, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker) bool {
	g := &hostGen{addr: addr, d: d}
	capacity := hello0.Capacity
	var wg sync.WaitGroup
	var okMu sync.Mutex
	okItems := 0
	var expandOnce sync.Once
	var dialExtras func(n int)

	runSlotConn := func(c stdnet.Conn, hello *wire.HelloFrame, onSuccess func()) {
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
		r.runSlot(ctx, g, c, hello, d, st, req, onSuccess)
	}
	onSuccess := func() {
		okMu.Lock()
		okItems++
		okMu.Unlock()
		if halfOpen {
			expandOnce.Do(func() {
				tk.update(addr, func(h *fleet.HostStats) { h.Breaker = BreakerClosed })
				if capacity > 1 {
					r.logf("net: host %s: probe shard completed; breaker closed, expanding to capacity %d", addr, capacity)
					dialExtras(capacity - 1)
				} else {
					r.logf("net: host %s: probe shard completed; breaker closed", addr)
				}
			})
		}
	}
	// dialExtras brings up n additional slots, each retrying its dial
	// under backoff instead of abandoning advertised capacity (the old
	// behavior silently ran the host short).
	dialExtras = func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				backoff := r.backoffBase()
				maxB := r.backoffMax()
				for {
					if g.isDown() || d.runOver() || ctx.Err() != nil {
						return
					}
					c, hello, err := r.dial(ctx, addr)
					if err != nil {
						tk.update(addr, func(h *fleet.HostStats) {
							h.SlotShortfall = h.Capacity - h.SlotsConnected
							h.LastErr = err.Error()
						})
						r.logf("net: host %s: slot %d dial failed (%v); retrying in %v", addr, slot, err, backoff)
						d.sleep(ctx, backoff)
						if backoff *= 2; backoff > maxB {
							backoff = maxB
						}
						continue
					}
					runSlotConn(c, hello, onSuccess)
					return
				}
			}(i)
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		runSlotConn(conn0, hello0, onSuccess)
	}()
	if !halfOpen && capacity > 1 {
		dialExtras(capacity - 1)
	}
	wg.Wait()
	okMu.Lock()
	defer okMu.Unlock()
	return okItems > 0
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
// and are not retried.
//
// Every request names the run's predictor by ID; its document crosses
// the connection at most once, and not at all when the worker's hello
// listed the ID. A redialed slot is a new connection and trusts only its
// own hello.
func (r *Runner) runSlot(ctx context.Context, g *hostGen, conn stdnet.Conn, hello *wire.HelloFrame, d *dispatcher, st *runState, req baseRequest, onSuccess func()) {
	maxRetries := r.maxRetries()
	hbTimeout := r.hbTimeout()
	writeTO := writeTimeoutFor(hbTimeout)
	predHeld := req.pred == nil || slices.Contains(hello.Predictors, req.pred.ID())
	for {
		if g.isDown() || ctx.Err() != nil {
			return
		}
		at := d.next(g.addr, g)
		if at == nil {
			return
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
			onSuccess()
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
			return
		}
		err = fmt.Errorf("net: host %s: %w", g.addr, err)
		if g.fail(err) {
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
		return
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
