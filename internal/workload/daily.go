package workload

// DailyMix returns a ~100-minute mixed-usage trace composed from the
// building blocks the paper evaluates in isolation: idle pocket time,
// bursts of browsing, video playback, a video call, gaming, and a charging
// top-up. No binary runs it; it is a test fixture whose phase changes,
// touch flips and charger transitions exercise the event engine
// (internal/device's event-engine pins) and the workload boundary
// contract.
func DailyMix(seed uint64) *Program {
	return New("daily-mix", seed,
		// Pocket idle, screen off.
		Phase{Name: "idle", Dur: 600, CPU: 0.02, CPUJitter: 0.01},
		// Messaging / browsing: short interactive bursts, held.
		Phase{Name: "browse", Dur: 900, BurstPeriod: 5, BurstDuty: 0.25, BurstHigh: 0.8, BurstLow: 0.06,
			CPUJitter: 0.05, Aux: 0.35, Display: 0.7, Touch: true},
		// Short video.
		Phase{Name: "video", Dur: 600, CPU: 0.14, CPUJitter: 0.04, GPU: 0.08, Aux: 0.5, Display: 0.8, Touch: true},
		// Video call.
		Phase{Name: "call", Dur: 1200, BurstPeriod: 6, BurstDuty: 0.5, BurstHigh: 0.85, BurstLow: 0.33,
			CPUJitter: 0.08, GPU: 0.18, GPUJitter: 0.04, Aux: 0.97, Display: 0.8, Touch: true},
		// A round of gaming.
		Phase{Name: "game", Dur: 900, CPU: 0.48, CPUJitter: 0.08, GPU: 0.52, GPUJitter: 0.08,
			Aux: 0.3, Display: 0.9, Touch: true},
		// Cool-down browse.
		Phase{Name: "wind-down", Dur: 300, BurstPeriod: 6, BurstDuty: 0.2, BurstHigh: 0.6, BurstLow: 0.05,
			CPUJitter: 0.04, Aux: 0.3, Display: 0.6, Touch: true},
		// On the charger, screen off.
		Phase{Name: "top-up", Dur: 1500, CPU: 0.03, CPUJitter: 0.02, Charge: 0.9},
	)
}
