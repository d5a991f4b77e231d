package net

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/fleet"
)

// itemState is one dispatch unit's lifecycle record: the unreported specs
// it still owes, its retry budget, and the hosts that failed it. An item
// is pending, or in flight on exactly one attempt, or finished.
type itemState struct {
	specs    []fleet.JobSpec
	attempts int                 // failed dispatches consumed
	badHosts map[string]struct{} // hosts that failed this item
}

// attempt is one dispatch of an item to one host.
type attempt struct {
	item *itemState
	addr string
}

// dispatcher is the coordinator's work queue: host slots pull items,
// failed items come back for retry, and an all-dead timer bounds how long
// the run waits for any host to come back. The run is over exactly when
// the queue is empty and no item is in flight, or the run is cancelled,
// or the fleet is declared down.
type dispatcher struct {
	mu         sync.Mutex
	cond       *sync.Cond
	pending    []*itemState
	inflight   int            // items claimed and not yet settled or lost
	connected  map[string]int // addr → live generations (0s removed)
	cancelled  bool
	fleetDown  bool
	overClosed bool
	over       chan struct{}
	lastErr    error
	allDead    time.Duration
	deadTimer  *time.Timer
	tk         *statsTracker
}

func newDispatcher(items []*itemState, r *Runner, tk *statsTracker) *dispatcher {
	d := &dispatcher{
		pending:   items,
		connected: make(map[string]int),
		over:      make(chan struct{}),
		allDead:   r.allDeadDeadline(),
		tk:        tk,
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
	if d.cancelled || d.fleetDown || (len(d.pending) == 0 && d.inflight == 0) {
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

// next blocks until addr has something to do and claims it: a pending
// item this host may run. Returns nil when the run is over or this host's
// generation has failed.
func (d *dispatcher) next(addr string, g *hostGen) *attempt {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled || d.fleetDown || d.overClosed || (g != nil && g.isDown()) {
			return nil
		}
		if len(d.pending) == 0 && d.inflight == 0 {
			d.maybeOverLocked()
			return nil
		}
		for i, it := range d.pending {
			if !d.eligibleLocked(it, addr) {
				continue
			}
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			d.inflight++
			return &attempt{item: it, addr: addr}
		}
		d.cond.Wait()
	}
}

// settle retires an attempt whose stream completed: ok for a full result
// stream, credited to its host, !ok for a deterministic worker-side
// failure.
func (d *dispatcher) settle(at *attempt, ok bool) {
	d.mu.Lock()
	d.inflight--
	if ok {
		d.tk.itemDone(at.addr)
	}
	d.maybeOverLocked()
	d.mu.Unlock()
	d.cond.Broadcast()
}

// lose records a transport-lost attempt whose unreported jobs are retry.
// Returns whether the caller should log a requeue, whether the retry
// budget is exhausted (the caller fails retry), and the attempt count for
// logging.
func (d *dispatcher) lose(at *attempt, retry []fleet.JobSpec, maxRetries int, err error) (requeue, exhausted bool, attempts int) {
	d.mu.Lock()
	defer func() {
		d.maybeOverLocked()
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	it := at.item
	if it.badHosts == nil {
		it.badHosts = make(map[string]struct{})
	}
	it.badHosts[at.addr] = struct{}{}
	if err != nil {
		d.lastErr = err
	}
	d.inflight--
	if len(retry) == 0 {
		// Every job was reported before the stream died: the host did
		// the item's work, only its done frame was lost.
		d.tk.itemDone(at.addr)
		return false, false, it.attempts
	}
	it.attempts++
	it.specs = retry
	if it.attempts > maxRetries {
		return false, true, it.attempts
	}
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
