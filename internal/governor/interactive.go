package governor

// Interactive reimplements the Android "interactive" cpufreq policy that
// succeeded ondemand on later handsets: on a load spike it jumps to an
// intermediate "hispeed" frequency rather than the maximum, holds a new
// frequency for a minimum dwell before ramping down, and otherwise scales
// to hold a target load. It is included as an additional baseline for
// governor-comparison studies; the paper's experiments all use ondemand.
type Interactive struct {
	// FreqsMHz is the ascending OPP frequency table.
	FreqsMHz []float64
	// GoHispeedLoad is the utilization that triggers the hispeed jump
	// (Android default 0.85).
	GoHispeedLoad float64
	// HispeedFreqMHz is the jump target (typically a upper-middle OPP).
	HispeedFreqMHz float64
	// TargetLoad is the utilization the governor tries to hold (0.90).
	TargetLoad float64
	// MinSampleTimeSec is the minimum dwell at a frequency before the
	// governor may lower it (Android default 80 ms... held at 20 ms here
	// to match the 100 ms sampling grid).
	MinSampleTimeSec float64

	lastChange float64
	lastLevel  int
}

// NewInteractive returns an interactive governor with Android-like
// defaults: hispeed at the 3/4 point of the table.
func NewInteractive(freqsMHz []float64) *Interactive {
	his := freqsMHz[len(freqsMHz)*3/4]
	return &Interactive{
		FreqsMHz:         freqsMHz,
		GoHispeedLoad:    0.85,
		HispeedFreqMHz:   his,
		TargetLoad:       0.90,
		MinSampleTimeSec: 0.2,
	}
}

// Name implements Governor.
func (g *Interactive) Name() string { return "interactive" }

// NextLevel implements Governor.
func (g *Interactive) NextLevel(s State) int {
	top := len(g.FreqsMHz) - 1
	cur := s.CurrentLevel
	if cur < 0 {
		cur = 0
	}
	if cur > top {
		cur = top
	}

	// Desired frequency to hold the target load at the present demand.
	need := g.FreqsMHz[cur] * s.Util / g.TargetLoad
	want := top
	for lvl, f := range g.FreqsMHz {
		if f >= need {
			want = lvl
			break
		}
	}

	// Load spike: jump at least to hispeed immediately.
	if s.Util > g.GoHispeedLoad {
		his := 0
		for lvl, f := range g.FreqsMHz {
			if f >= g.HispeedFreqMHz {
				his = lvl
				break
			}
		}
		if want < his {
			want = his
		}
	}

	switch {
	case want > cur:
		// Raising is always allowed.
		g.lastChange = s.TimeSec
		g.lastLevel = want
		return want
	case want < cur:
		// Lowering requires the dwell to have expired.
		if s.TimeSec-g.lastChange < g.MinSampleTimeSec {
			return cur
		}
		g.lastChange = s.TimeSec
		g.lastLevel = want
		return want
	default:
		return cur
	}
}
