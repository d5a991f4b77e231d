// Package chaos is a deterministic fault-injection harness for the
// networked fleet: an in-process TCP proxy whose fault schedule — dial
// refusals, connection drops at frame N, per-frame delays, truncated and
// corrupted frames, listener blackouts — is derived entirely from a seed
// and per-connection/per-frame counters, never from wall-clock time. The
// same seed therefore produces the same fault pattern on every run, which
// is what lets the net runner's recovery tests assert byte-identity
// against LocalRunner under any schedule instead of hoping a flaky sleep
// lines up.
//
// Faults are injected on the worker→coordinator direction only (the
// frames that carry samples, results and heartbeats); requests pass
// through untouched so a fault always looks like a transport failure to
// the coordinator, exercising its requeue/redial machinery. Corruption is
// destructive by construction — the first payload byte becomes 0x00,
// which neither begins a JSON envelope nor names a binary frame kind — so
// a corrupted frame is always detected as wire.ErrBadFrame and can never
// silently alter telemetry.
//
// A fault budget caps total injections: once spent, the proxy runs clean,
// guaranteeing that a run with enough retries eventually completes.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"sync"
	"time"
)

// Fault kinds, as recorded in Stats and chosen by the schedule.
const (
	FaultNone     = "none"
	FaultRefuse   = "refuse-dial"
	FaultDrop     = "drop"
	FaultCorrupt  = "corrupt"
	FaultTruncate = "truncate"
	FaultDelay    = "delay"
)

// Plan is the fault assignment for one proxied connection. Zero values
// mean "no fault of that kind".
type Plan struct {
	// Kind names the fault for logs/stats.
	Kind string
	// RefuseDial closes the client connection before relaying the hello:
	// the coordinator sees a dead dial and backs off.
	RefuseDial bool
	// DropAfterFrames cuts both directions after forwarding that many
	// worker frames (0 = disabled; the hello counts as frame 1).
	DropAfterFrames int
	// CorruptFrame overwrites the first payload byte of the Nth worker
	// frame with 0x00 — guaranteed wire.ErrBadFrame — then cuts.
	CorruptFrame int
	// TruncateFrame forwards only half of the Nth worker frame's payload,
	// then cuts mid-frame (io.ErrUnexpectedEOF on the coordinator).
	TruncateFrame int
	// DelayEvery pauses Delay before every Nth worker frame (0 = never).
	DelayEvery int
	// Delay is the per-DelayEvery pause.
	Delay time.Duration
}

// splitmix64 is the counter-based generator behind every schedule
// decision: stateless, so plan(seed, conn) is a pure function.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Schedule derives per-connection fault plans from a seed under a global
// fault budget.
type Schedule struct {
	// Seed drives every decision; two schedules with the same seed and
	// budget produce identical fault sequences.
	Seed int64
	// MaxFaults caps injected faults proxy-wide (<= 0: 8). Once spent,
	// every further connection runs clean.
	MaxFaults int
	// Override, when set, is consulted first for every connection: return
	// (plan, true) to use it verbatim (budget-exempt), or false to fall
	// through to the seeded draw. Tests use it to pin targeted fault
	// patterns; it must itself be deterministic in conn.
	Override func(conn int) (Plan, bool)

	mu   sync.Mutex
	used int
}

// NewSchedule builds a seeded schedule with the given fault budget.
func NewSchedule(seed int64, maxFaults int) *Schedule {
	return &Schedule{Seed: seed, MaxFaults: maxFaults}
}

func (s *Schedule) budget() int {
	if s.MaxFaults > 0 {
		return s.MaxFaults
	}
	return 8
}

// PlanFor returns the deterministic plan for the conn-th accepted
// connection (0-based). Drawing a faulty plan spends one unit of budget;
// a spent budget degrades every plan to clean.
func (s *Schedule) PlanFor(conn int) Plan {
	if s.Override != nil {
		if p, ok := s.Override(conn); ok {
			return p
		}
	}
	p := rawPlan(uint64(s.Seed), conn)
	if p.Kind == FaultNone {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used >= s.budget() {
		return Plan{Kind: FaultNone}
	}
	s.used++
	return p
}

// rawPlan is the pure seed → plan mapping, before budgeting.
func rawPlan(seed uint64, conn int) Plan {
	h := splitmix64(seed ^ splitmix64(uint64(conn)+1))
	h2 := splitmix64(h)
	switch h % 10 {
	case 0, 1: // 20%: refused dial
		return Plan{Kind: FaultRefuse, RefuseDial: true}
	case 2, 3: // 20%: drop mid-stream
		return Plan{Kind: FaultDrop, DropAfterFrames: int(h2%12) + 1}
	case 4: // 10%: corrupted frame
		return Plan{Kind: FaultCorrupt, CorruptFrame: int(h2%8) + 2}
	case 5: // 10%: truncated frame
		return Plan{Kind: FaultTruncate, TruncateFrame: int(h2%8) + 2}
	case 6, 7: // 20%: jittery link
		return Plan{Kind: FaultDelay, DelayEvery: int(h2%3) + 2,
			Delay: time.Duration(h2%20+1) * time.Millisecond}
	default: // 30%: clean connection
		return Plan{Kind: FaultNone}
	}
}

// Stats counts what the proxy actually did.
type Stats struct {
	Conns     int
	Frames    int
	Refused   int
	Drops     int
	Corrupted int
	Truncated int
	Delays    int
	Blackout  int // dials rejected by a blackout window
}

// Proxy is the fault-injecting TCP proxy. Start one in front of a worker
// daemon and point the coordinator at Addr.
type Proxy struct {
	ln      stdnet.Listener
	backend string
	sched   *Schedule
	logf    func(string, ...any)

	mu        sync.Mutex
	dials     int
	blackFrom int // dial-indexed blackout window [from, to)
	blackTo   int
	stats     Stats

	wg     sync.WaitGroup
	closed chan struct{}
}

// Start listens on a loopback port and relays to backend under the
// schedule. logf may be nil.
func Start(backend string, sched *Schedule, logf func(string, ...any)) (*Proxy, error) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, backend: backend, sched: sched, logf: logf, closed: make(chan struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr is the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops the listener and waits for every relay to unwind.
func (p *Proxy) Close() {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.ln.Close()
	p.wg.Wait()
}

// Stats snapshots the proxy's fault counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// SetBlackout rejects dials with index in [from, to) — a deterministic
// listener blackout window ("the daemon's port went dark for a while").
func (p *Proxy) SetBlackout(from, to int) {
	p.mu.Lock()
	p.blackFrom, p.blackTo = from, to
	p.mu.Unlock()
}

func (p *Proxy) log(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		conn := p.dials
		p.dials++
		p.stats.Conns++
		blackout := conn >= p.blackFrom && conn < p.blackTo
		if blackout {
			p.stats.Blackout++
		}
		p.mu.Unlock()
		if blackout {
			p.log("chaos: conn %d: blackout, refusing dial", conn)
			client.Close()
			continue
		}
		plan := p.sched.PlanFor(conn)
		if plan.RefuseDial {
			p.count(func(s *Stats) { s.Refused++ })
			p.log("chaos: conn %d: refusing dial", conn)
			client.Close()
			continue
		}
		p.wg.Add(1)
		go func(client stdnet.Conn, conn int, plan Plan) {
			defer p.wg.Done()
			defer client.Close()
			server, err := stdnet.Dial("tcp", p.backend)
			if err != nil {
				return
			}
			defer server.Close()
			if plan.Kind != FaultNone {
				p.log("chaos: conn %d: plan %s %+v", conn, plan.Kind, plan)
			}
			// Requests pass through untouched; a vanished side ends the
			// relay (closing the peer unblocks the other copy).
			go func() {
				io.Copy(server, client)
				server.Close()
				client.Close()
			}()
			p.relay(client, server, conn, plan)
		}(client, conn, plan)
	}
}

// relay forwards worker frames to the client, injecting the plan's
// faults at their scheduled frame indices.
func (p *Proxy) relay(client, server stdnet.Conn, conn int, plan Plan) {
	frame := 0
	for {
		select {
		case <-p.closed:
			return
		default:
		}
		hdr, payload, err := readRawFrame(server)
		if err != nil {
			return
		}
		frame++
		p.count(func(s *Stats) { s.Frames++ })
		if plan.DelayEvery > 0 && frame%plan.DelayEvery == 0 {
			p.count(func(s *Stats) { s.Delays++ })
			select {
			case <-time.After(plan.Delay):
			case <-p.closed:
				return
			}
		}
		switch {
		case plan.CorruptFrame > 0 && frame == plan.CorruptFrame && len(payload) > 0:
			// 0x00 begins neither a JSON envelope nor a binary frame: the
			// coordinator is guaranteed wire.ErrBadFrame, never a
			// silently-wrong value.
			payload[0] = 0x00
			p.count(func(s *Stats) { s.Corrupted++ })
			p.log("chaos: conn %d: corrupting frame %d", conn, frame)
			client.Write(hdr)
			client.Write(payload)
			p.cut(client, server)
			return
		case plan.TruncateFrame > 0 && frame == plan.TruncateFrame && len(payload) > 1:
			p.count(func(s *Stats) { s.Truncated++ })
			p.log("chaos: conn %d: truncating frame %d", conn, frame)
			client.Write(hdr)
			client.Write(payload[:len(payload)/2])
			p.cut(client, server)
			return
		}
		if _, err := client.Write(hdr); err != nil {
			return
		}
		if _, err := client.Write(payload); err != nil {
			return
		}
		if plan.DropAfterFrames > 0 && frame >= plan.DropAfterFrames {
			p.count(func(s *Stats) { s.Drops++ })
			p.log("chaos: conn %d: dropping after frame %d", conn, frame)
			p.cut(client, server)
			return
		}
	}
}

func (p *Proxy) cut(client, server stdnet.Conn) {
	client.Close()
	server.Close()
}

func (p *Proxy) count(fn func(*Stats)) {
	p.mu.Lock()
	fn(&p.stats)
	p.mu.Unlock()
}

// readRawFrame reads one length-prefixed frame without decoding it,
// returning the 4-byte header and the payload.
func readRawFrame(r io.Reader) (hdr []byte, payload []byte, err error) {
	hdr = make([]byte, 4)
	if _, err = io.ReadFull(r, hdr); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > 64<<20 {
		return nil, nil, fmt.Errorf("chaos: implausible frame length %d", n)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return nil, nil, err
	}
	return hdr, payload, nil
}

// ErrClosed reports whether err is the uninteresting teardown error of a
// closed proxy listener.
func ErrClosed(err error) bool {
	return err == nil || errors.Is(err, stdnet.ErrClosed)
}
