package governor

// Schedutil reimplements the modern kernel's utilization-driven policy:
// next_freq = C · util · f_current (C = 1.25), resolved upward in the OPP
// table. Included as the "what replaced ondemand" comparison point; the
// paper's platform predates it.
type Schedutil struct {
	// FreqsMHz is the ascending OPP frequency table.
	FreqsMHz []float64
	// Headroom is the overprovisioning factor C (kernel default 1.25).
	Headroom float64
}

// NewSchedutil returns a schedutil governor with the kernel defaults.
func NewSchedutil(freqsMHz []float64) *Schedutil {
	return &Schedutil{FreqsMHz: freqsMHz, Headroom: 1.25}
}

// Name implements Governor.
func (g *Schedutil) Name() string { return "schedutil" }

// NextLevel implements Governor.
func (g *Schedutil) NextLevel(s State) int {
	top := len(g.FreqsMHz) - 1
	cur := s.CurrentLevel
	if cur < 0 {
		cur = 0
	}
	if cur > top {
		cur = top
	}
	need := g.Headroom * s.Util * g.FreqsMHz[cur]
	for lvl, f := range g.FreqsMHz {
		if f >= need {
			return lvl
		}
	}
	return top
}
