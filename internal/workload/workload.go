// Package workload generates the demand traces the simulated phone executes.
//
// A workload is a pure function of time: At(t) returns the instantaneous
// resource demand (CPU work, GPU load, board-level "aux" power for camera /
// radio / flashlight, battery charging heat, display brightness, and whether
// the user is holding the device). Determinism matters — every experiment in
// the reproduction is seeded — so stochastic jitter is computed from a hash
// of (seed, time slot) rather than from mutable RNG state.
//
// The package ships phase-structured models of the paper's thirteen
// evaluation workloads (AnTuTu variants, AnTuTu Tester, GFXBench, Vellamo,
// Skype, YouTube, Record, Charging, and a game) plus synthetic generators
// used to diversify the ML training corpus.
package workload

import (
	"fmt"
	"math"
)

// Sample is the instantaneous demand of a workload.
type Sample struct {
	// CPUFrac is the requested CPU work as a fraction of the SoC's maximum
	// aggregate capacity (all cores at top frequency). Values above 1 are
	// legal (the workload wants more than the hardware can deliver).
	CPUFrac float64
	// GPULoad is the GPU busy fraction in [0,1].
	GPULoad float64
	// AuxWatts is board-level power: camera, ISP, radio, GPS, flashlight.
	AuxWatts float64
	// ChargeWatts is heat dissipated inside the battery by charging.
	ChargeWatts float64
	// Display is the screen brightness in [0,1]; 0 means screen off.
	Display float64
	// Touch reports whether the user's palm is on the back cover.
	Touch bool
}

// Phase is one segment of a workload program. CPU demand is Base unless
// BurstPeriod > 0, in which case it alternates between BurstHigh (for
// BurstDuty of each period) and BurstLow. Uniform jitter of ±CPUJitter
// (±GPUJitter) is added on top, re-rolled every jitter slot (1 s).
type Phase struct {
	Name string
	Dur  float64 // seconds; must be positive

	CPU       float64
	CPUJitter float64
	GPU       float64
	GPUJitter float64

	BurstPeriod float64
	BurstDuty   float64
	BurstHigh   float64
	BurstLow    float64

	Aux     float64
	Charge  float64
	Display float64
	Touch   bool
}

// Workload is a deterministic demand trace.
type Workload interface {
	// Name identifies the workload in logs and reports.
	Name() string
	// Duration returns the trace length in seconds.
	Duration() float64
	// At returns the demand at time t seconds. Beyond Duration the workload
	// is idle (zero demand, screen off).
	At(t float64) Sample
}

// Program is a seeded, phase-structured Workload.
type Program struct {
	name     string
	seed     uint64
	phases   []Phase
	offsets  []float64 // cumulative start time of each phase
	burstInv []float64 // 1/BurstPeriod per phase (0 when no burst)
	total    float64
}

// New builds a Program from phases. It panics if any phase has a
// non-positive duration, since that is always a programming error in a
// hard-coded profile.
func New(name string, seed uint64, phases ...Phase) *Program {
	if len(phases) == 0 {
		panic("workload: program needs at least one phase")
	}
	p := &Program{name: name, seed: seed, phases: phases}
	p.offsets = make([]float64, len(phases))
	p.burstInv = make([]float64, len(phases))
	var acc float64
	for i, ph := range phases {
		if ph.Dur <= 0 {
			panic(fmt.Sprintf("workload: phase %q has non-positive duration %v", ph.Name, ph.Dur))
		}
		p.offsets[i] = acc
		if ph.BurstPeriod > 0 {
			p.burstInv[i] = 1 / ph.BurstPeriod
		}
		acc += ph.Dur
	}
	p.total = acc
	return p
}

// Name implements Workload.
func (p *Program) Name() string { return p.name }

// Duration implements Workload.
func (p *Program) Duration() float64 { return p.total }

// splitmix64 is the 64-bit finalizer used for deterministic value noise.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noise returns a deterministic uniform value in [0,1) for (seed, slot, lane).
func noise(seed uint64, slot int64, lane uint64) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(slot)+lane*0x9e3779b97f4a7c15))
	return float64(h>>11) / float64(1<<53)
}

// At implements Workload.
func (p *Program) At(t float64) Sample {
	if t < 0 || t >= p.total {
		return Sample{}
	}
	// Locate the phase by binary search over the offsets.
	lo, hi := 0, len(p.phases)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.offsets[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	ph := p.phases[lo]
	local := t - p.offsets[lo]

	cpu := ph.CPU
	if ph.BurstPeriod > 0 {
		// Fractional burst position without math.Mod: this runs once per
		// simulation tick, and Mod's exact range reduction costs more than
		// the rest of the sampling combined.
		f := local * p.burstInv[lo]
		pos := f - math.Floor(f)
		if pos < ph.BurstDuty {
			cpu = ph.BurstHigh
		} else {
			cpu = ph.BurstLow
		}
	}
	slot := int64(math.Floor(t)) // jitter re-rolled each second
	if ph.CPUJitter > 0 {
		cpu += ph.CPUJitter * (2*noise(p.seed, slot, uint64(lo)*3+1) - 1)
	}
	gpu := ph.GPU
	if ph.GPUJitter > 0 {
		gpu += ph.GPUJitter * (2*noise(p.seed, slot, uint64(lo)*3+2) - 1)
	}
	if cpu < 0 {
		cpu = 0
	}
	if gpu < 0 {
		gpu = 0
	}
	if gpu > 1 {
		gpu = 1
	}
	return Sample{
		CPUFrac:     cpu,
		GPULoad:     gpu,
		AuxWatts:    ph.Aux,
		ChargeWatts: ph.Charge,
		Display:     ph.Display,
		Touch:       ph.Touch,
	}
}

// Cursored is an optional fast-path interface: workloads whose sampling
// can be made cheaper under (mostly) monotone time access return a per-run
// cursor function. The cursor must produce exactly the samples At would —
// it may only cache work across calls, never change results — and it must
// tolerate time moving backwards by falling back to a full lookup. Each
// cursor is private to one run; workload values themselves stay immutable
// and shareable across concurrent runs.
type Cursored interface {
	Cursor() func(t float64) Sample
}

// SamplerOf returns the cheapest per-run sampling function for w: the
// cursor if w provides one, otherwise w.At.
func SamplerOf(w Workload) func(t float64) Sample {
	if c, ok := w.(Cursored); ok {
		return c.Cursor()
	}
	return w.At
}

// Cursor implements Cursored: the returned sampler tracks the active phase
// and the current jitter slot instead of re-deriving both on every call,
// which removes the phase search and two hash chains from the simulator's
// per-tick cost.
func (p *Program) Cursor() func(t float64) Sample {
	idx := 0
	haveSlot := false
	var slot int64
	var jCPU, jGPU float64
	return func(t float64) Sample {
		if t < 0 || t >= p.total {
			return Sample{}
		}
		if t < p.offsets[idx] { // time went backwards: restart the scan
			idx = 0
			haveSlot = false
		}
		for idx+1 < len(p.phases) && p.offsets[idx+1] <= t {
			idx++
			haveSlot = false
		}
		ph := &p.phases[idx]
		local := t - p.offsets[idx]

		cpu := ph.CPU
		if ph.BurstPeriod > 0 {
			f := local * p.burstInv[idx]
			pos := f - math.Floor(f)
			if pos < ph.BurstDuty {
				cpu = ph.BurstHigh
			} else {
				cpu = ph.BurstLow
			}
		}
		gpu := ph.GPU
		if ph.CPUJitter > 0 || ph.GPUJitter > 0 {
			s := int64(math.Floor(t))
			if !haveSlot || s != slot {
				slot, haveSlot = s, true
				jCPU, jGPU = 0, 0
				if ph.CPUJitter > 0 {
					jCPU = ph.CPUJitter * (2*noise(p.seed, s, uint64(idx)*3+1) - 1)
				}
				if ph.GPUJitter > 0 {
					jGPU = ph.GPUJitter * (2*noise(p.seed, s, uint64(idx)*3+2) - 1)
				}
			}
			cpu += jCPU
			gpu += jGPU
		}
		if cpu < 0 {
			cpu = 0
		}
		if gpu < 0 {
			gpu = 0
		}
		if gpu > 1 {
			gpu = 1
		}
		return Sample{
			CPUFrac:     cpu,
			GPULoad:     gpu,
			AuxWatts:    ph.Aux,
			ChargeWatts: ph.Charge,
			Display:     ph.Display,
			Touch:       ph.Touch,
		}
	}
}

// boundaryMargin is subtracted from every NextChange result. Burst edges
// are recovered by inverse-mapping the fractional burst position back to a
// time, which can land a few ulp after the instant where At's forward
// comparison actually flips; reporting the boundary marginally early is
// always safe (the caller re-samples sooner than strictly necessary),
// while reporting it late would let a held sample outlive its truth.
const boundaryMargin = 1e-9

// NextChange returns the earliest time u > t at which the program's sample
// may differ from At(t): the end of the active phase, the next jitter slot
// (jitter re-rolls each second), or the next burst edge. Between t and the
// returned time, At is constant. Outside the program it returns 0 (for
// t < 0, where the next change is the program start) or +Inf (at or past
// the end, where the sample is zero forever).
func (p *Program) NextChange(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t >= p.total {
		return math.Inf(1)
	}
	lo, hi := 0, len(p.phases)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.offsets[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	ph := &p.phases[lo]
	next := p.offsets[lo] + ph.Dur // phase end (== p.total for the last phase)
	if ph.CPUJitter > 0 || ph.GPUJitter > 0 {
		if u := math.Floor(t) + 1; u < next {
			next = u
		}
	}
	if ph.BurstPeriod > 0 {
		f := (t - p.offsets[lo]) * p.burstInv[lo]
		base := math.Floor(f)
		var edge float64
		if f-base < ph.BurstDuty {
			edge = base + ph.BurstDuty // high → low within this period
		} else {
			edge = base + 1 // low → high at the next period
		}
		u := p.offsets[lo] + edge*ph.BurstPeriod
		if u <= t {
			// The inverse map rounded the edge onto (or below) t itself:
			// the flip is imminent, within a few ulp. The smallest honest
			// answer is the very next representable time.
			u = math.Nextafter(t, math.Inf(1))
		}
		if u < next {
			next = u
		}
	}
	if u := next - boundaryMargin; u > t {
		return u
	}
	return next
}

// BoundaryQueried is the optional event-engine interface: workloads that
// can report the next time their sample may change admit held-input
// segment folding (see device.Phone.RunEventContext). The contract is
// conservative: At must be constant on [t, NextChange(t)), and
// NextChange(t) > t for every t inside the workload. Reporting a change that doesn't happen is
// legal (it only costs a shorter segment); missing one is not.
type BoundaryQueried interface {
	NextChange(t float64) float64
}

// NextChangeOf returns w's boundary query, or nil when w doesn't support
// one (callers fall back to tick-by-tick stepping). Truncated wrappers
// delegate to the inner workload and add the clip point itself as a final
// boundary.
func NextChangeOf(w Workload) func(t float64) float64 {
	switch x := w.(type) {
	case Truncated:
		return truncatedNextChange(x)
	case *Truncated:
		return truncatedNextChange(*x)
	case BoundaryQueried:
		return x.NextChange
	}
	return nil
}

func truncatedNextChange(tr Truncated) func(t float64) float64 {
	inner := NextChangeOf(tr.W)
	if inner == nil {
		return nil
	}
	dur := tr.Dur
	return func(t float64) float64 {
		if t >= dur {
			return math.Inf(1)
		}
		u := inner(t)
		if u > dur {
			u = dur // the clip itself is a change point (sample drops to zero)
		}
		return u
	}
}

// PhaseAt returns the name of the phase active at time t, or "" outside the
// program.
func (p *Program) PhaseAt(t float64) string {
	if t < 0 || t >= p.total {
		return ""
	}
	for i := len(p.offsets) - 1; i >= 0; i-- {
		if p.offsets[i] <= t {
			return p.phases[i].Name
		}
	}
	return ""
}

// Repeat returns a program consisting of n back-to-back copies of p's
// phases.
func (p *Program) Repeat(n int) *Program {
	if n <= 0 {
		panic("workload: Repeat needs n >= 1")
	}
	phases := make([]Phase, 0, len(p.phases)*n)
	for i := 0; i < n; i++ {
		phases = append(phases, p.phases...)
	}
	return New(p.name, p.seed, phases...)
}

// Truncated wraps a workload, clipping it to the given duration.
type Truncated struct {
	W   Workload
	Dur float64
}

// Name implements Workload.
func (tr Truncated) Name() string { return tr.W.Name() }

// Duration implements Workload.
func (tr Truncated) Duration() float64 { return tr.Dur }

// At implements Workload.
func (tr Truncated) At(t float64) Sample {
	if t < 0 || t >= tr.Dur {
		return Sample{}
	}
	return tr.W.At(t)
}

// Cursor implements Cursored, delegating to the wrapped workload's fast
// path when it has one.
func (tr Truncated) Cursor() func(t float64) Sample {
	inner := SamplerOf(tr.W)
	dur := tr.Dur
	return func(t float64) Sample {
		if t < 0 || t >= dur {
			return Sample{}
		}
		return inner(t)
	}
}
