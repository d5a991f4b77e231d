package net

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
)

// itemState is one dispatch unit's lifecycle record: the unreported specs
// it still owes, its retry budget, and the in-flight attempt accounting
// that makes hedging and requeueing race-free.
type itemState struct {
	specs    []fleet.JobSpec
	attempts int                 // failed dispatches consumed
	live     int                 // in-flight attempts (primary + hedge)
	done     bool                // completed or permanently failed
	hedged   bool                // a hedge is (or was) riding this flight
	owner    string              // host running the primary attempt
	started  time.Time           // when the current flight began
	badHosts map[string]struct{} // hosts that failed this item
}

// attempt is one dispatch of an item to one host. It doubles as the
// telemetry-buffer key, so a lost attempt's half-streamed samples can be
// dropped without touching a live sibling's.
type attempt struct {
	item  *itemState
	specs []fleet.JobSpec // snapshot of item.specs at claim time
	addr  string
	hedge bool
}

// dispatcher is the coordinator's work queue: host slots pull items,
// failed items come back for retry, idle slots hedge overdue flights, and
// an all-dead timer bounds how long the run waits for any host to come
// back. The run is over exactly when the queue and the in-flight set are
// both empty, or the run is cancelled, or the fleet is declared down.
type dispatcher struct {
	mu         sync.Mutex
	cond       *sync.Cond
	pending    []*itemState
	inflight   map[*itemState]struct{}
	connected  map[string]int // addr → live generations (0s removed)
	cancelled  bool
	fleetDown  bool
	overClosed bool
	over       chan struct{}
	lastErr    error
	durations  []time.Duration // completed item wall times, for the hedge p95
	hedgeAfter time.Duration
	allDead    time.Duration
	deadTimer  *time.Timer
	tk         *statsTracker
	logf       func(string, ...any)
}

func newDispatcher(items []*itemState, r *Runner, tk *statsTracker) *dispatcher {
	d := &dispatcher{
		pending:    items,
		inflight:   make(map[*itemState]struct{}),
		connected:  make(map[string]int),
		over:       make(chan struct{}),
		hedgeAfter: r.HedgeAfter,
		allDead:    r.allDeadDeadline(),
		tk:         tk,
		logf:       r.logf,
	}
	d.cond = sync.NewCond(&d.mu)
	d.mu.Lock()
	d.armAllDeadLocked()
	d.mu.Unlock()
	return d
}

// maybeOverLocked closes the run-over channel when the run's end
// condition holds. Callers hold d.mu.
func (d *dispatcher) maybeOverLocked() {
	if d.overClosed {
		return
	}
	if d.cancelled || d.fleetDown || (len(d.pending) == 0 && len(d.inflight) == 0) {
		d.overClosed = true
		close(d.over)
		if d.deadTimer != nil {
			d.deadTimer.Stop()
		}
	}
}

func (d *dispatcher) runOver() bool {
	select {
	case <-d.over:
		return true
	default:
		return false
	}
}

func (d *dispatcher) isFleetDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fleetDown
}

// armAllDeadLocked starts the zero-connected-hosts countdown. Callers
// hold d.mu.
func (d *dispatcher) armAllDeadLocked() {
	if d.overClosed || d.deadTimer != nil {
		return
	}
	d.deadTimer = time.AfterFunc(d.allDead, func() {
		d.mu.Lock()
		if len(d.connected) == 0 && !d.overClosed {
			d.fleetDown = true
			if d.lastErr == nil {
				d.lastErr = errors.New("net: no live worker hosts")
			}
			d.maybeOverLocked()
		}
		d.mu.Unlock()
		d.cond.Broadcast()
	})
}

// setConnected tracks a host generation coming up or down, driving the
// all-dead countdown: armed while nothing is connected, cancelled the
// moment any host (re)connects.
func (d *dispatcher) setConnected(addr string, up bool) {
	d.mu.Lock()
	if up {
		d.connected[addr]++
		if d.deadTimer != nil {
			d.deadTimer.Stop()
			d.deadTimer = nil
		}
	} else {
		if d.connected[addr]--; d.connected[addr] <= 0 {
			delete(d.connected, addr)
		}
		if len(d.connected) == 0 {
			d.armAllDeadLocked()
		}
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// noteErr remembers the most recent host-level error for strand reports.
func (d *dispatcher) noteErr(err error) {
	if err == nil {
		return
	}
	d.mu.Lock()
	d.lastErr = err
	d.mu.Unlock()
}

// eligibleLocked reports whether addr may run it. A host that failed an
// item does not get it again while some other connected host could take
// it — but when nobody else can (single-host inventories, everyone else
// down or equally burned), the item goes back to the same host rather
// than starving.
func (d *dispatcher) eligibleLocked(it *itemState, addr string) bool {
	if _, bad := it.badHosts[addr]; !bad {
		return true
	}
	for a := range d.connected {
		if a == addr {
			continue
		}
		if _, bad := it.badHosts[a]; !bad {
			return false
		}
	}
	return true
}

// hedgeThresholdLocked returns the in-flight age beyond which an idle
// slot may hedge an item, or 0 when hedging is (currently) off.
func (d *dispatcher) hedgeThresholdLocked() time.Duration {
	if d.hedgeAfter < 0 {
		return 0
	}
	if d.hedgeAfter > 0 {
		return d.hedgeAfter
	}
	n := len(d.durations)
	if n < 4 {
		return 0
	}
	s := append([]time.Duration(nil), d.durations...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	th := 3 * s[(n*95)/100]
	if th < defaultHedgeFloor {
		th = defaultHedgeFloor
	}
	return th
}

// next blocks until addr has something to do and claims it: a pending
// item, or — when the queue is empty and another host's flight is
// overdue — a hedge on that flight. Returns nil when the run is over or
// this host's generation has failed.
func (d *dispatcher) next(addr string, g *hostGen) *attempt {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled || d.fleetDown || d.overClosed || (g != nil && g.isDown()) {
			return nil
		}
		if len(d.pending) == 0 && len(d.inflight) == 0 {
			d.maybeOverLocked()
			return nil
		}
		for i, it := range d.pending {
			if !d.eligibleLocked(it, addr) {
				continue
			}
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			it.owner = addr
			it.started = time.Now()
			it.live = 1
			it.hedged = false
			d.inflight[it] = struct{}{}
			return &attempt{item: it, specs: it.specs, addr: addr}
		}
		// Nothing claimable; consider hedging an overdue flight.
		if th := d.hedgeThresholdLocked(); th > 0 {
			now := time.Now()
			soonest := time.Duration(-1)
			for it := range d.inflight {
				if it.done || it.hedged || it.owner == addr {
					continue
				}
				if _, bad := it.badHosts[addr]; bad {
					continue
				}
				wait := th - now.Sub(it.started)
				if wait <= 0 {
					it.hedged = true
					it.live++
					d.tk.hedge()
					if d.logf != nil {
						d.logf("net: host %s: hedging %d-job shard stuck on %s for >%v", addr, len(it.specs), it.owner, th)
					}
					return &attempt{item: it, specs: it.specs, addr: addr, hedge: true}
				}
				if soonest < 0 || wait < soonest {
					soonest = wait
				}
			}
			if soonest >= 0 {
				// Re-check when the earliest flight crosses the threshold.
				t := time.AfterFunc(soonest+time.Millisecond, d.cond.Broadcast)
				d.cond.Wait()
				t.Stop()
				continue
			}
		}
		d.cond.Wait()
	}
}

// settle retires an attempt whose stream completed: ok for a full result
// stream, !ok for a deterministic worker-side failure. Idempotent across
// hedged siblings — the first reporter wins.
func (d *dispatcher) settle(at *attempt, dur time.Duration, ok bool) {
	d.mu.Lock()
	it := at.item
	it.live--
	if !it.done {
		it.done = true
		delete(d.inflight, it)
		if ok {
			d.durations = append(d.durations, dur)
			if at.hedge {
				d.tk.hedgeWin()
			}
			d.tk.itemDone(at.addr)
		}
	}
	d.maybeOverLocked()
	d.mu.Unlock()
	d.cond.Broadcast()
}

// abandon drops an attempt during run cancellation: accounting only, the
// final sweep owns the job results.
func (d *dispatcher) abandon(at *attempt) {
	d.mu.Lock()
	at.item.live--
	d.mu.Unlock()
	d.cond.Broadcast()
}

// lose records a transport-lost attempt. The item is requeued only by its
// last live attempt: while a hedged sibling is still streaming, the loss
// is silent. Returns whether the caller should log a requeue, whether the
// retry budget is exhausted (the caller fails retry), and the attempt
// count for logging.
func (d *dispatcher) lose(at *attempt, retry []fleet.JobSpec, maxRetries int, err error) (requeue, exhausted bool, attempts int) {
	d.mu.Lock()
	defer func() {
		d.maybeOverLocked()
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	it := at.item
	it.live--
	if it.badHosts == nil {
		it.badHosts = make(map[string]struct{})
	}
	it.badHosts[at.addr] = struct{}{}
	if err != nil {
		d.lastErr = err
	}
	if it.done || it.live > 0 {
		return false, false, it.attempts
	}
	if len(retry) == 0 {
		// Every job was reported before the stream died.
		it.done = true
		delete(d.inflight, it)
		return false, false, it.attempts
	}
	it.attempts++
	it.specs = retry
	delete(d.inflight, it)
	if it.attempts > maxRetries {
		it.done = true
		return false, true, it.attempts
	}
	it.hedged = false
	it.owner = ""
	d.pending = append(d.pending, it)
	return true, false, it.attempts
}

// cancel aborts the run: blocked slots and sleeping supervisors wake and
// exit.
func (d *dispatcher) cancel() {
	d.mu.Lock()
	d.cancelled = true
	d.maybeOverLocked()
	d.mu.Unlock()
	d.cond.Broadcast()
}

// strandErr picks the error stranded jobs are failed with.
func (d *dispatcher) strandErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastErr != nil {
		return d.lastErr
	}
	return errors.New("net: no live worker hosts")
}

// sleep waits for dur, or until the run is over or ctx cancelled.
func (d *dispatcher) sleep(ctx context.Context, dur time.Duration) {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	case <-d.over:
	}
}
