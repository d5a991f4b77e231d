// Package governor implements CPU frequency governors with the semantics of
// the Linux cpufreq policies shipped on the paper's Android 4.3 platform.
// The baseline for every experiment is the ondemand governor, which the
// paper describes as: jump to the maximum frequency when utilization is at
// its peak, scale down steeply when utilization is very low, and step down
// proportionally when utilization sits between roughly 20 % and 80 %.
//
// Governors select a DVFS *level* (an index into the SoC's OPP table); the
// device layer applies it through the CPU's clamp (scaling_max_freq), which
// the USTA controller in package core manipulates.
package governor

// State is the per-sampling-window observation a governor reacts to.
type State struct {
	// TimeSec is the simulation time at the end of the window.
	TimeSec float64
	// Util is the CPU utilization over the window in [0,1].
	Util float64
	// CurrentLevel is the DVFS level that was in effect during the window.
	CurrentLevel int
}

// Governor decides the next DVFS level from the current state.
type Governor interface {
	// Name identifies the governor in logs and reports.
	Name() string
	// NextLevel returns the desired level for the next window. The device
	// layer saturates the result into the valid, clamped range.
	NextLevel(s State) int
}

// Ondemand reimplements the classic Linux/Android ondemand policy.
type Ondemand struct {
	// FreqsMHz is the ascending OPP frequency table.
	FreqsMHz []float64
	// UpThreshold is the utilization above which the governor jumps straight
	// to the maximum frequency (Linux default 0.80 on this platform).
	UpThreshold float64
	// DownDifferential is subtracted from UpThreshold to form the target
	// operating point when scaling down (Linux default 0.10).
	DownDifferential float64
}

// NewOndemand returns an ondemand governor with the platform defaults.
func NewOndemand(freqsMHz []float64) *Ondemand {
	return &Ondemand{FreqsMHz: freqsMHz, UpThreshold: 0.80, DownDifferential: 0.10}
}

// Name implements Governor.
func (o *Ondemand) Name() string { return "ondemand" }

// NextLevel implements the ondemand policy: above UpThreshold, jump to the
// top level; otherwise pick the lowest frequency that would serve the
// observed load at (UpThreshold − DownDifferential) utilization.
func (o *Ondemand) NextLevel(s State) int {
	top := len(o.FreqsMHz) - 1
	if s.Util > o.UpThreshold {
		return top
	}
	cur := s.CurrentLevel
	if cur < 0 {
		cur = 0
	}
	if cur > top {
		cur = top
	}
	// Required frequency so the present demand would load the CPU to the
	// down-target utilization.
	target := o.UpThreshold - o.DownDifferential
	if target <= 0 {
		target = o.UpThreshold
	}
	need := o.FreqsMHz[cur] * s.Util / target
	for lvl, f := range o.FreqsMHz {
		if f >= need {
			return lvl
		}
	}
	return top
}

// Performance always selects the highest level.
type Performance struct{ NumLevels int }

// Name implements Governor.
func (p *Performance) Name() string { return "performance" }

// NextLevel implements Governor.
func (p *Performance) NextLevel(State) int { return p.NumLevels - 1 }

// Powersave always selects the lowest level.
type Powersave struct{}

// Name implements Governor.
func (p *Powersave) Name() string { return "powersave" }

// NextLevel implements Governor.
func (p *Powersave) NextLevel(State) int { return 0 }

// Conservative steps one level at a time: up when utilization exceeds
// UpThreshold, down when it falls below DownThreshold.
type Conservative struct {
	NumLevels     int
	UpThreshold   float64
	DownThreshold float64
}

// NewConservative returns a conservative governor with the Linux defaults
// (up 0.80, down 0.20).
func NewConservative(numLevels int) *Conservative {
	return &Conservative{NumLevels: numLevels, UpThreshold: 0.80, DownThreshold: 0.20}
}

// Name implements Governor.
func (c *Conservative) Name() string { return "conservative" }

// NextLevel implements Governor.
func (c *Conservative) NextLevel(s State) int {
	lvl := s.CurrentLevel
	switch {
	case s.Util > c.UpThreshold && lvl < c.NumLevels-1:
		lvl++
	case s.Util < c.DownThreshold && lvl > 0:
		lvl--
	}
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= c.NumLevels {
		lvl = c.NumLevels - 1
	}
	return lvl
}
