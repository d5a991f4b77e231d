package governor

// Hotplug reimplements the essentials of Qualcomm's mpdecision daemon,
// which managed core onlining on the paper's platform: cores come online
// when sustained utilization is high and are power-gated when it falls.
// It is a separate decision layer from the frequency governor and is
// consulted on the same sampling grid.
type Hotplug struct {
	// MaxCores is the core count of the SoC.
	MaxCores int
	// UpThreshold brings another core online when exceeded (0.80).
	UpThreshold float64
	// DownThreshold offlines a core when utilization falls below it (0.30).
	DownThreshold float64
	// DwellSec is the minimum time between hotplug actions (1 s —
	// mpdecision was deliberately sluggish to avoid thrash).
	DwellSec float64

	lastAction float64
}

// NewHotplug returns an mpdecision-like policy for the given core count.
func NewHotplug(maxCores int) *Hotplug {
	return &Hotplug{MaxCores: maxCores, UpThreshold: 0.80, DownThreshold: 0.30, DwellSec: 1.0}
}

// NextOnline returns the desired online-core count given the current
// count and the window's utilization (measured against the *online*
// capacity).
func (h *Hotplug) NextOnline(timeSec, util float64, online int) int {
	if online < 1 {
		online = 1
	}
	if online > h.MaxCores {
		online = h.MaxCores
	}
	if timeSec-h.lastAction < h.DwellSec {
		return online
	}
	switch {
	case util > h.UpThreshold && online < h.MaxCores:
		h.lastAction = timeSec
		return online + 1
	case util < h.DownThreshold && online > 1:
		h.lastAction = timeSec
		return online - 1
	}
	return online
}
