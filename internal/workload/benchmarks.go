package workload

// This file models the paper's thirteen evaluation workloads (Table 1).
// Each profile is shaped to land in the same thermal class the paper
// measured on the instrumented Nexus 4 under the baseline ondemand
// governor:
//
//   hot sustained   — AnTuTu Tester (42.8 °C peak skin), Skype video call
//                     (42.8 °C), AnTuTu CPU 1.5 h (39.3 °C)
//   warm            — AnTuTu CPU (37.9), Record (37.1), Game (36.6),
//                     AnTuTu CPU-GPU-RAM (36.3)
//   mild            — AnTuTu Full (34.0), AnTuTu UserExp (31.9),
//                     Charging (31.7), Vellamo (31.0), YouTube (30.4),
//                     GFXBench (29.3)
//
// Skype and AnTuTu Tester are hot at *moderate* average frequency because
// much of their dissipation is board-level (camera + ISP + radio for the
// video call; screen, flashlight, sensors for the hardware tester), not
// CPU-core switching power. That distinction is load-bearing for the
// paper's argument: a skin-temperature limit cannot be enforced by looking
// at CPU frequency alone.

// BenchmarkNames lists the thirteen Table 1 workloads in column order.
var BenchmarkNames = []string{
	"antutu-cpu",
	"antutu-cpu-gpu-ram",
	"antutu-userexp",
	"antutu-full",
	"antutu-cpu-90min",
	"antutu-tester",
	"gfxbench",
	"vellamo",
	"skype",
	"youtube",
	"record",
	"charging",
	"game",
}

// benchmarkCtors holds the thirteen workload constructors in
// BenchmarkNames order; entry i is seeded with seed+i+1.
var benchmarkCtors = [...]func(uint64) *Program{
	AnTuTuCPU,
	AnTuTuCPUGPURAM,
	AnTuTuUserExp,
	AnTuTuFull,
	AnTuTuCPU90Min,
	AnTuTuTester,
	GFXBench,
	Vellamo,
	Skype,
	YouTube,
	Record,
	Charging,
	Game,
}

// Benchmarks returns all thirteen paper workloads, seeded deterministically
// from the given base seed.
func Benchmarks(seed uint64) []*Program {
	ps := make([]*Program, len(benchmarkCtors))
	for i, ctor := range benchmarkCtors {
		ps[i] = ctor(seed + uint64(i) + 1)
	}
	return ps
}

// ByName returns the named paper workload (one of BenchmarkNames), seeded
// from seed exactly as Benchmarks(seed) seeds it, or nil if the name is
// unknown. Only the named program is built.
func ByName(name string, seed uint64) *Program {
	for i, n := range BenchmarkNames {
		if n == name {
			return benchmarkCtors[i](seed + uint64(i) + 1)
		}
	}
	return nil
}

// AnTuTuCPU models the CPU-only AnTuTu subset: compute sections separated
// by score screens, repeated for ~25 minutes.
func AnTuTuCPU(seed uint64) *Program {
	cycle := []Phase{
		{Name: "compute", Dur: 75, CPU: 0.88, CPUJitter: 0.06, GPU: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "score", Dur: 30, CPU: 0.12, CPUJitter: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("antutu-cpu", seed, cycle...).Repeat(14) // ~24.5 min
}

// AnTuTuCPUGPURAM models the combined CPU+GPU+memory AnTuTu subset.
func AnTuTuCPUGPURAM(seed uint64) *Program {
	cycle := []Phase{
		{Name: "cpu", Dur: 55, CPU: 0.85, CPUJitter: 0.06, GPU: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "gpu", Dur: 50, CPU: 0.30, CPUJitter: 0.05, GPU: 0.65, GPUJitter: 0.1, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "ram", Dur: 35, CPU: 0.55, CPUJitter: 0.08, GPU: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "score", Dur: 25, CPU: 0.10, CPUJitter: 0.04, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("antutu-cpu-gpu-ram", seed, cycle...).Repeat(9) // ~24.8 min
}

// AnTuTuUserExp models the user-experience AnTuTu subset: short interactive
// bursts that kick ondemand to the top level without sustained dissipation.
func AnTuTuUserExp(seed uint64) *Program {
	cycle := []Phase{
		{Name: "burst", Dur: 60, BurstPeriod: 4, BurstDuty: 0.3, BurstHigh: 0.92, BurstLow: 0.08,
			CPUJitter: 0.04, GPU: 0.15, GPUJitter: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "settle", Dur: 20, CPU: 0.1, CPUJitter: 0.04, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("antutu-userexp", seed, cycle...).Repeat(12) // 16 min
}

// AnTuTuFull models the complete AnTuTu benchmark set run.
func AnTuTuFull(seed uint64) *Program {
	cycle := []Phase{
		{Name: "cpu", Dur: 70, CPU: 0.80, CPUJitter: 0.06, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "gpu", Dur: 60, CPU: 0.25, GPU: 0.60, GPUJitter: 0.1, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "ux", Dur: 50, BurstPeriod: 4, BurstDuty: 0.3, BurstHigh: 0.85, BurstLow: 0.1, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "io-score", Dur: 60, CPU: 0.18, CPUJitter: 0.06, Aux: 0.2, Display: 0.7, Touch: true},
	}
	return New("antutu-full", seed, cycle...).Repeat(5) // 20 min
}

// AnTuTuCPU90Min models the customized 1.5-hour AnTuTu CPU loop the paper
// uses as its longest soak.
func AnTuTuCPU90Min(seed uint64) *Program {
	cycle := []Phase{
		{Name: "compute", Dur: 85, CPU: 0.90, CPUJitter: 0.05, GPU: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "score", Dur: 23, CPU: 0.12, CPUJitter: 0.05, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("antutu-cpu-90min", seed, cycle...).Repeat(50) // 90 min
}

// AnTuTuTester models the hardware tester app used in the user study: a
// moderate CPU load plus heavy board-level dissipation (full-brightness
// screen pattern tests, flashlight, vibration motor, sensor sweeps). This is
// the workload that drove every participant past their comfort limit.
func AnTuTuTester(seed uint64) *Program {
	cycle := []Phase{
		{Name: "screen-test", Dur: 120, CPU: 0.45, CPUJitter: 0.08, GPU: 0.25, GPUJitter: 0.05, Aux: 1.35, Display: 1.0, Touch: true},
		{Name: "hw-test", Dur: 120, CPU: 0.55, CPUJitter: 0.08, GPU: 0.10, Aux: 1.55, Display: 1.0, Touch: true},
	}
	return New("antutu-tester", seed, cycle...).Repeat(8) // 32 min
}

// GFXBench models the offscreen GPU benchmark suite: GPU-bound, short run.
func GFXBench(seed uint64) *Program {
	cycle := []Phase{
		{Name: "scene", Dur: 100, CPU: 0.28, CPUJitter: 0.05, GPU: 0.85, GPUJitter: 0.08, Aux: 0.15, Display: 0.7, Touch: true},
		{Name: "load", Dur: 25, CPU: 0.35, CPUJitter: 0.05, GPU: 0.1, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("gfxbench", seed, cycle...).Repeat(5) // ~10.4 min
}

// Vellamo models the browser/metal benchmark: bursty medium CPU.
func Vellamo(seed uint64) *Program {
	cycle := []Phase{
		{Name: "html5", Dur: 90, BurstPeriod: 5, BurstDuty: 0.45, BurstHigh: 0.75, BurstLow: 0.12,
			CPUJitter: 0.05, GPU: 0.1, Aux: 0.25, Display: 0.7, Touch: true},
		{Name: "metal", Dur: 60, CPU: 0.6, CPUJitter: 0.08, Aux: 0.15, Display: 0.7, Touch: true},
	}
	return New("vellamo", seed, cycle...).Repeat(6) // 15 min
}

// Skype models the 30-minute video call of Figures 2 and 4: sustained
// moderate CPU (capture + encode + decode), light GPU compositing, and the
// large board-level dissipation of camera, ISP and the radio uplink. The
// display stays on at call brightness and the phone is held throughout.
func Skype(seed uint64) *Program {
	// The CPU/board power split matters for USTA's authority: encode/decode
	// CPU work dominates (clampable), while camera + ISP + radio contribute
	// ≈1 W the governor cannot touch. At the minimum OPP the residual board
	// power settles the skin just below 37 °C — the regime of Figure 4,
	// where USTA holds a steady temperature near the default limit. The
	// encoder is bursty (group-of-pictures cadence), which is what keeps
	// the paper's baseline *average* frequency near 1.1 GHz even though the
	// call saturates the thermal envelope.
	return New("skype", seed, Phase{
		Name: "call", Dur: 1800,
		BurstPeriod: 6, BurstDuty: 0.5, BurstHigh: 0.85, BurstLow: 0.33,
		CPUJitter: 0.08,
		GPU:       0.18, GPUJitter: 0.04,
		Aux: 0.97, Display: 0.8, Touch: true,
	})
}

// YouTube models 30 minutes of hardware-decoded video playback.
func YouTube(seed uint64) *Program {
	return New("youtube", seed, Phase{
		Name: "playback", Dur: 1800,
		CPU: 0.14, CPUJitter: 0.05,
		GPU: 0.08, GPUJitter: 0.02,
		Aux: 0.5, Display: 0.8, Touch: true,
	})
}

// Record models 30 minutes of camcorder recording: camera + ISP + hardware
// encoder dominate, with moderate CPU.
func Record(seed uint64) *Program {
	return New("record", seed, Phase{
		Name: "record", Dur: 1800,
		CPU: 0.34, CPUJitter: 0.06,
		GPU: 0.10, GPUJitter: 0.03,
		Aux: 1.15, Display: 0.75, Touch: true,
	})
}

// Charging models an hour on the charger with the screen off: the CPU
// idles while the charger dissipates heat in the battery.
func Charging(seed uint64) *Program {
	return New("charging", seed, Phase{
		Name: "charge", Dur: 3600,
		CPU: 0.03, CPUJitter: 0.02,
		Charge: 0.9, Display: 0,
	})
}

// Game models 30 minutes of "The Legend of Holy Archer": steady mixed
// CPU+GPU with the screen bright and the phone held.
func Game(seed uint64) *Program {
	return New("game", seed, Phase{
		Name: "play", Dur: 1800,
		CPU: 0.48, CPUJitter: 0.08,
		GPU: 0.52, GPUJitter: 0.08,
		Aux: 0.3, Display: 0.9, Touch: true,
	})
}

// --- Synthetic generators (ML-corpus diversity and tests) ---

// SquareWave returns a workload alternating between high and low CPU demand.
func SquareWave(seed uint64, period, duty, high, low, dur float64) *Program {
	return New("square-wave", seed, Phase{
		Name: "square", Dur: dur,
		BurstPeriod: period, BurstDuty: duty, BurstHigh: high, BurstLow: low,
		Display: 0.7,
	})
}

// StaircaseRamp returns a workload stepping CPU demand from lo to hi in
// steps of the given length — useful for sweeping the governor's operating
// points during ML data collection.
func StaircaseRamp(seed uint64, lo, hi float64, steps int, stepDur float64) *Program {
	if steps < 2 {
		panic("workload: StaircaseRamp needs at least 2 steps")
	}
	phases := make([]Phase, steps)
	for i := range phases {
		frac := lo + (hi-lo)*float64(i)/float64(steps-1)
		phases[i] = Phase{
			Name: "step", Dur: stepDur,
			CPU: frac, CPUJitter: 0.03,
			Display: 0.7,
		}
	}
	return New("staircase-ramp", seed, phases...)
}

// RandomPhases returns a workload of n phases with demand levels drawn
// deterministically from the seed — a Markov-ish surrogate for mixed daily
// use in the training corpus.
func RandomPhases(seed uint64, n int, phaseDur float64) *Program {
	if n < 1 {
		panic("workload: RandomPhases needs n >= 1")
	}
	phases := make([]Phase, n)
	for i := range phases {
		cpu := noise(seed, int64(i), 11)
		gpu := noise(seed, int64(i), 13) * 0.7
		aux := noise(seed, int64(i), 17) * 0.8
		phases[i] = Phase{
			Name: "rand", Dur: phaseDur,
			CPU: cpu, CPUJitter: 0.08,
			GPU: gpu, GPUJitter: 0.05,
			Aux: aux, Display: 0.7,
			Touch: noise(seed, int64(i), 19) > 0.5,
		}
	}
	return New("random-phases", seed, phases...)
}

// Idle returns a screen-off idle workload.
func Idle(dur float64) *Program {
	return New("idle", 0, Phase{Name: "idle", Dur: dur, CPU: 0.015, Display: 0})
}
