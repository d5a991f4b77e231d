package device

import (
	"context"
	"fmt"

	"repro/internal/governor"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// EventMode selects the stepping engine for a run.
//
// The fixed-tick oracle recomputes every input every 50 ms even though the
// workload sample — the only *external* input — is piecewise-constant
// between events (phase boundaries, burst edges, jitter slots, touch
// flips). The event modes exploit that: a run is cut into segments at
// every point where an input may change or an observation must happen
// (logger emission, trace record, controller epoch), the segment's inputs
// are frozen, and the per-tick *scheduling* arithmetic (utilization,
// governor windows and fires, aggregate sums) is replayed exactly while
// the *physics* (thermal network + sensor lags) advances under the frozen
// drive — sequentially in EventOracle, in O(log ticks) matrix jumps in
// EventJump.
//
// What is exact and what is approximate, precisely:
//
//   - EventOff is the plain fixed-tick loop, kept as the oracle the event
//     engines are pinned against; it runs only when asked for by name.
//   - EventTick runs the event machinery but takes every tick canonically;
//     it is byte-identical to EventOff and exists to pin exactly that in
//     CI.
//   - EventOracle and EventJump hold each segment's power/battery inputs
//     at segment-start values (a zero-order hold at event resolution,
//     instead of tick resolution). Frequency, utilization, governor-level
//     trajectories, work aggregates and record Util/FreqMHz averages are
//     replayed bit-exactly for governor-driven runs; thermal-plane values
//     (temperatures, energy, state of charge, sensor readings) differ
//     from the tick oracle only by the held-input discretization, which
//     the differential suite bounds to millikelvins on the paper's
//     workloads. A controller that *reads* thermal observations (USTA)
//     can therefore occasionally clamp one decision differently; runs
//     without a controller stay exact on the whole scheduling plane.
//   - EventJump vs EventOracle differ only by floating-point summation
//     order in the physics (≈1e-9 °C); everything else is identical.
//
// Ticks where draws, emissions or decisions happen — logger emissions,
// trace records, controller epochs — close their segment: the physics
// jump lands exactly on them and their emission/decision arithmetic is
// replayed from the jumped state in the oracle's order, so every
// sensor-noise draw happens at exactly the tick the oracle draws it and
// the noise streams never desynchronize. A close-out may be a segment of
// one tick (a level change landing just before an emission); only the
// run's first tick and charging ticks stay fully canonical.
//
// The zero value is EventJump: the production engine is decided here and
// nowhere else, so every caller that names no engine runs it. The in-memory
// values are not what crosses a process boundary; the wire and the WAL
// carry Code.
type EventMode int

const (
	// EventJump folds held-input segments and advances the physics with
	// power-of-two propagator-ladder jumps (thermal.Ladder): O(log gap)
	// matrix applications per segment. The zero value: the production
	// engine.
	EventJump EventMode = iota
	// EventTick drives the event engine with every tick canonical:
	// byte-identical to EventOff, the CI pin for the event plumbing.
	EventTick
	// EventOracle folds held-input segments but advances the physics
	// tick by tick: the differential midpoint between EventTick and
	// EventJump.
	EventOracle
	// EventOff is the plain fixed-tick loop (no event machinery): the
	// oracle, run only when requested explicitly.
	EventOff
)

// eventCodes are the modes' persisted codes (Code), stable across releases
// whatever the in-memory order.
var eventCodes = [...]int{EventOff: 0, EventTick: 1, EventOracle: 2, EventJump: 3}

// Code returns the mode's stable code, the form it takes on the worker
// wire (wire.ShardRequest.Event) and in the WAL (durable.Submission.Event):
// off 0, tick 1, oracle 2, jump 3. An invalid mode has code -1, which
// EventModeOfCode refuses.
func (m EventMode) Code() int {
	if m < 0 || int(m) >= len(eventCodes) {
		return -1
	}
	return eventCodes[m]
}

// EventModeOfCode is the inverse of Code; an unknown code is an error.
func EventModeOfCode(c int) (EventMode, error) {
	for m, mc := range eventCodes {
		if mc == c {
			return EventMode(m), nil
		}
	}
	return 0, fmt.Errorf("device: unknown event mode code %d (want 0..%d)", c, len(eventCodes)-1)
}

// folds reports whether the mode folds held-input segments (EventOracle,
// EventJump) rather than taking every tick canonically.
func (m EventMode) folds() bool { return m == EventOracle || m == EventJump }

// String returns the CLI spelling of the mode.
func (m EventMode) String() string {
	switch m {
	case EventOff:
		return "off"
	case EventTick:
		return "tick"
	case EventOracle:
		return "oracle"
	case EventJump:
		return "jump"
	}
	return fmt.Sprintf("EventMode(%d)", int(m))
}

// ParseEventMode parses the CLI spelling of an event mode; the empty
// string is the zero value, EventJump.
func ParseEventMode(s string) (EventMode, error) {
	switch s {
	case "", "jump":
		return EventJump, nil
	case "tick":
		return EventTick, nil
	case "oracle":
		return EventOracle, nil
	case "off":
		return EventOff, nil
	}
	return EventJump, fmt.Errorf("device: unknown event mode %q (want off|tick|oracle|jump)", s)
}

// EventRun drives a StepRun segment by segment instead of tick by tick.
// Construct with Phone.StartEventRun and call Segment until Active
// reports false, then Finish.
type EventRun struct {
	r    *StepRun
	mode EventMode

	// boundary is the workload's next-change query; nil degrades the
	// effective mode to EventTick (every tick canonical — correct for any
	// workload, just without the speedup).
	boundary func(float64) float64

	// taps couple the four sensor lag filters to their thermal nodes for
	// the jump ladder, in the exact order stepPost advances them.
	taps   []thermal.Tap
	states []float64
	sc     thermal.LadderScratch

	// Two-slot ladder memo keyed by the network fingerprint: a run
	// alternates between at most the touching / not-touching
	// configurations, and the memo keeps the per-segment lookup off the
	// shared cache's mutex.
	ladSig [2]uint64
	lad    [2]*thermal.Ladder
}

// StartEventRun opens a tick-controlled run of w (StartRun) and wraps it
// in the event engine. Modes that fold segments degrade to EventTick when
// the workload has no boundary query or the device runs the hotplug
// policy (whose online-core changes invalidate held capacity).
func (p *Phone) StartEventRun(w workload.Workload, dur float64, mode EventMode) *EventRun {
	r := p.StartRun(w, dur)
	e := &EventRun{r: r, mode: mode}
	if mode.folds() {
		e.boundary = workload.NextChangeOf(w)
		if e.boundary == nil || p.hotplug != nil {
			e.mode = EventTick
		}
	}
	if e.mode.folds() {
		dt := r.dt
		e.taps = []thermal.Tap{
			{Node: p.nodes.Die, Alpha: p.cpuSensor.Alpha(dt)},
			{Node: p.nodes.Battery, Alpha: p.batSensor.Alpha(dt)},
			{Node: p.nodes.CoverMid, Alpha: p.skinTherm.Alpha(dt)},
			{Node: p.nodes.Screen, Alpha: p.screenTherm.Alpha(dt)},
		}
		e.states = make([]float64, len(e.taps))
	}
	return e
}

// Run returns the underlying StepRun.
func (e *EventRun) Run() *StepRun { return e.r }

// Mode returns the effective mode (after any degradation to EventTick).
func (e *EventRun) Mode() EventMode { return e.mode }

// Active reports whether ticks remain.
func (e *EventRun) Active() bool { return e.r.done < e.r.steps }

// Finish closes the run (StepRun.Finish).
func (e *EventRun) Finish(err error) (*RunResult, error) { return e.r.Finish(err) }

// RunEventContext is RunContext on the event engine: segment-granular
// cancellation (a segment is at most one record period of simulated time).
// mode EventOff delegates to the plain tick loop.
func (p *Phone) RunEventContext(ctx context.Context, w workload.Workload, dur float64, mode EventMode) (*RunResult, error) {
	if mode == EventOff {
		return p.RunContext(ctx, w, dur)
	}
	e := p.StartEventRun(w, dur, mode)
	for e.Active() {
		if err := ctx.Err(); err != nil {
			return e.Finish(err)
		}
		e.Segment()
	}
	return e.Finish(nil)
}

// canonicalTick advances exactly one oracle tick.
func (e *EventRun) canonicalTick() {
	r := e.r
	r.PreStep()
	r.p.net.Step(r.dt)
	r.PostStep()
}

// Segment advances the run by one unit: a single canonical tick when the
// mode demands it (EventTick, the run's first tick, charging), otherwise
// one held-input segment of up to a record period's worth of folded
// ticks, closed by the next observing/deciding tick.
func (e *EventRun) Segment() {
	r := e.r
	if r.done >= r.steps {
		return
	}
	// The first tick is always canonical: it primes the sensor lags,
	// opens the logger window and emits the initial record, exactly like
	// the oracle.
	if !e.mode.folds() || r.done == 0 {
		e.canonicalTick()
		return
	}
	e.runHeld()
}

// runHeld folds one held-input segment: inputs frozen at segment start,
// per-tick scheduling arithmetic replayed exactly, physics advanced under
// the frozen drive at the end (sequentially in EventOracle, by ladder
// jump in EventJump).
func (e *EventRun) runHeld() {
	r := e.r
	p := r.p
	res := r.res
	dt := r.dt

	sample := r.at(p.timeSec)
	if sample.ChargeWatts > 0 {
		// Charging mutates the pack's CC/CV state nonlinearly per tick;
		// keep those ticks canonical (exact). Only the Charging workload
		// has them, for a fraction of its duration.
		e.canonicalTick()
		return
	}
	nextChange := e.boundary(p.timeSec)

	// Freeze the segment inputs — the same arithmetic as stepPre, with
	// the battery heat peeked instead of drained (the drain happens once,
	// below, when the segment length is known).
	if sample.Touch != p.touching {
		p.touching = sample.Touch
		thermal.ApplyTouch(p.net, p.nodes, p.cfg.Thermal, p.touching)
	}
	demand := sample.CPUFrac * p.cpu.MaxCapacityMHz()
	capacity := p.cpu.CapacityMHz()
	util := 0.0
	if capacity > 0 {
		util = demand / capacity
	}
	if util > 1 {
		util = 1
	}
	p.utilNow = util
	r.demand = demand

	dieT := p.net.Temp(p.nodes.Die)
	cpuPower := p.cpu.Power(util, dieT)
	gpuPower := p.cpu.GPUPower(sample.GPULoad)
	auxPower := sample.AuxWatts
	displayPower := sample.Display * p.cfg.DisplayMaxWatts
	load := cpuPower + gpuPower + auxPower + displayPower
	batteryHeat := p.pack.DischargeHeat(load)
	powerNow := cpuPower + gpuPower + auxPower + batteryHeat + displayPower

	// Fold ticks while the frozen inputs stay truthful: stop at the
	// workload's next change, at a governor level change, or at the run's
	// end. An observing/deciding tick (logger emission, trace record,
	// controller epoch) that is still covered by the frozen inputs does
	// not end the fold — it becomes the segment's close-out tick: the
	// physics jump lands exactly on it and its emission arithmetic is
	// replayed from the jumped state below. The loop body replays
	// stepPost's scheduling arithmetic (logger accumulation BEFORE the
	// governor block, aggregate frequency AFTER it — PostStep's order)
	// add for add, so every accumulator sees the identical float sequence
	// the oracle would produce.
	// Per-tick constants and accumulators hoisted to locals: the governor
	// interface call inside the loop could alias anything as far as the
	// compiler knows, so field-resident accumulators would be reloaded
	// and re-stored every tick. The products powerNow·dt and demand·dt
	// are bitwise the same every tick, so computing them once preserves
	// the oracle's exact add sequence.
	level := p.cpu.Level()
	maxSteps := r.steps - r.done
	powerDt := powerNow * dt
	demandDt := demand * dt
	govPeriod := p.cfg.GovernorPeriodSec
	recPeriod := p.cfg.RecordPeriodSec
	lastRec := r.lastRecord
	hasCtrl := p.ctrl != nil
	var ctrlPeriod, lastCtrl float64
	if hasCtrl {
		ctrlPeriod = p.ctrl.PeriodSec()
		lastCtrl = p.lastCtrlSec
	}
	timeSec := p.timeSec
	lastGov := p.lastGovSec
	govUtil := p.govWinUtil
	govN := p.govWinSamples
	freqSum := r.freqSum
	utilSum := r.utilSum
	energy := res.EnergyJ
	workDem := res.WorkDemanded
	workDone := res.WorkDone
	k := 0
	closeOut := false
	for {
		if k > 0 {
			if k >= maxSteps || timeSec >= nextChange || p.cpu.Level() != level {
				break
			}
		}
		t1 := timeSec + dt
		if p.logger.WouldEmit(t1) || t1-lastRec+1e-9 >= recPeriod ||
			(hasCtrl && t1-lastCtrl+1e-9 >= ctrlPeriod) {
			// The tick is within the frozen inputs' validity (checked
			// above for k > 0; at k == 0 the freeze just happened), so it
			// joins the physics jump; its scheduling/emission replay runs
			// post-jump, because emission samples the sensors at the
			// jumped state. A segment can therefore be a single close-out
			// tick — e.g. when a governor level change lands right before
			// an emission.
			closeOut = true
			k++
			break
		}
		timeSec += dt
		p.logger.ObserveHeld(timeSec, util, p.cpu.FreqMHz())
		govUtil += util
		govN++
		if timeSec-lastGov+1e-9 >= govPeriod {
			avg := govUtil / float64(govN)
			lvl := p.gov.NextLevel(governor.State{
				TimeSec:      timeSec,
				Util:         avg,
				CurrentLevel: p.cpu.Level(),
			})
			p.cpu.SetLevel(lvl)
			govUtil, govN = 0, 0
			lastGov = timeSec
		}
		freqSum += p.cpu.FreqMHz()
		utilSum += util
		energy += powerDt
		capNow := p.cpu.CapacityMHz()
		workDem += demandDt
		if capNow < demand {
			workDone += capNow * dt
		} else {
			workDone += demandDt
		}
		k++
	}
	p.timeSec = timeSec
	p.lastGovSec = lastGov
	p.govWinUtil = govUtil
	p.govWinSamples = govN
	r.freqSum = freqSum
	r.utilSum = utilSum
	res.EnergyJ = energy
	res.WorkDemanded = workDem
	res.WorkDone = workDone

	// One held-model drain for the whole segment: the heat rate matches
	// the peek above (same load, same segment-start SoC), so powerNow was
	// consistent with the drain.
	p.pack.Discharge(load, float64(k)*dt)

	p.net.SetPower(p.nodes.Die, cpuPower)
	p.net.SetPower(p.nodes.Pkg, gpuPower)
	p.net.SetPower(p.nodes.PCB, auxPower)
	p.net.SetPower(p.nodes.Battery, batteryHeat)
	p.net.SetPower(p.nodes.Screen, displayPower)
	p.powerNowW = powerNow

	if e.mode == EventJump {
		if l := e.ladderFor(dt); l != nil {
			e.states[0] = p.cpuSensor.LagState()
			e.states[1] = p.batSensor.LagState()
			e.states[2] = p.skinTherm.LagState()
			e.states[3] = p.screenTherm.LagState()
			l.AdvanceComposite(p.net, e.states, k, &e.sc)
			p.cpuSensor.SetLagState(e.states[0])
			p.batSensor.SetLagState(e.states[1])
			p.skinTherm.SetLagState(e.states[2])
			p.screenTherm.SetLagState(e.states[3])
		} else {
			e.seqPhysics(k)
		}
	} else {
		e.seqPhysics(k)
	}

	// Close-out tick: replay the observing/deciding tick's scheduling and
	// emission arithmetic from the jumped state, in stepPost/PostStep's
	// order — logger accumulation and emission (the noise draws happen
	// here, at exactly the tick the oracle draws them), governor window,
	// controller epoch, then the post-decision frequency into the
	// aggregates and the trace record.
	var freqOut float64
	if closeOut {
		p.timeSec += dt
		p.logger.ObserveHeld(p.timeSec, util, p.cpu.FreqMHz())
		p.logger.EmitHeld(p.timeSec, p.cpuSensor, p.batSensor, p.skinTherm, p.screenTherm)
		p.govWinUtil += util
		p.govWinSamples++
		if p.timeSec-p.lastGovSec+1e-9 >= p.cfg.GovernorPeriodSec {
			avg := p.govWinUtil / float64(p.govWinSamples)
			lvl := p.gov.NextLevel(governor.State{
				TimeSec:      p.timeSec,
				Util:         avg,
				CurrentLevel: p.cpu.Level(),
			})
			p.cpu.SetLevel(lvl)
			p.govWinUtil, p.govWinSamples = 0, 0
			p.lastGovSec = p.timeSec
		}
		if p.ctrl != nil && p.timeSec-p.lastCtrlSec+1e-9 >= p.ctrl.PeriodSec() {
			p.ctrl.Act(p)
			p.lastCtrlSec = p.timeSec
		}
		freqOut = p.cpu.FreqMHz()
		r.freqSum += freqOut
		r.utilSum += util
		res.EnergyJ += powerNow * dt
		capNow := p.cpu.CapacityMHz()
		res.WorkDemanded += demand * dt
		served := demand
		if capNow < served {
			served = capNow
		}
		res.WorkDone += served * dt
	}

	// Peak tracking from the segment-end state. Between two records the
	// oracle checks every tick; under monotone intra-segment transients
	// (the common case — segments are sub-second) the end state is the
	// extremum, and the record ticks closing each segment replay the
	// oracle's record arithmetic either way. The differential suite bounds
	// the residual.
	skin := p.net.Temp(p.nodes.CoverMid)
	screen := p.net.Temp(p.nodes.Screen)
	die := p.net.Temp(p.nodes.Die)
	bat := p.net.Temp(p.nodes.Battery)
	if skin > res.MaxSkinC {
		res.MaxSkinC = skin
	}
	if screen > res.MaxScreenC {
		res.MaxScreenC = screen
	}
	if die > res.MaxDieC {
		res.MaxDieC = die
	}
	if bat > res.MaxBatteryC {
		res.MaxBatteryC = bat
	}

	// Trace record + telemetry observer at the close-out tick, exactly
	// PostStep's record block.
	if closeOut && p.timeSec-r.lastRecord+1e-9 >= p.cfg.RecordPeriodSec {
		if res.Trace != nil {
			res.Trace.Append(p.timeSec,
				skin, screen, die, bat,
				freqOut, p.utilNow, float64(p.cpu.MaxLevel()),
			)
		}
		r.lastRecord = p.timeSec
		if p.observer != nil {
			p.observer(Sample{
				TimeSec:  p.timeSec,
				SkinC:    skin,
				ScreenC:  screen,
				DieC:     die,
				BatteryC: bat,
				FreqMHz:  freqOut,
				Util:     p.utilNow,
				MaxLevel: p.cpu.MaxLevel(),
			})
		}
	}
	r.done += k
}

// seqPhysics advances the physics k ticks under the already-injected
// frozen drive: the per-tick propagator step plus the sensor lag
// recurrence, exactly the oracle's physics path with held inputs
// (EventOracle, and EventJump's fallback when no ladder is available —
// e.g. RK4-forced networks).
func (e *EventRun) seqPhysics(k int) {
	p := e.r.p
	dt := e.r.dt
	for i := 0; i < k; i++ {
		p.net.Step(dt)
		p.cpuSensor.Advance(p.net.Temp(p.nodes.Die), dt)
		p.batSensor.Advance(p.net.Temp(p.nodes.Battery), dt)
		p.skinTherm.Advance(p.net.Temp(p.nodes.CoverMid), dt)
		p.screenTherm.Advance(p.net.Temp(p.nodes.Screen), dt)
	}
}

// ladderFor returns the jump ladder for the network's current
// configuration through the run's two-slot memo (touching / not).
func (e *EventRun) ladderFor(dt float64) *thermal.Ladder {
	sig := e.r.p.net.Fingerprint()
	if e.lad[0] != nil && e.ladSig[0] == sig {
		return e.lad[0]
	}
	if e.lad[1] != nil && e.ladSig[1] == sig {
		e.lad[0], e.lad[1] = e.lad[1], e.lad[0]
		e.ladSig[0], e.ladSig[1] = e.ladSig[1], e.ladSig[0]
		return e.lad[0]
	}
	l := e.r.p.net.LadderFor(dt, e.taps)
	if l != nil {
		e.lad[1], e.ladSig[1] = e.lad[0], e.ladSig[0]
		e.lad[0], e.ladSig[0] = l, sig
	}
	return l
}
