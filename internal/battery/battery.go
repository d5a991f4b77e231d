// Package battery models the handset's lithium-polymer pack: state of
// charge, open-circuit voltage, internal-resistance losses, and a CC/CV
// charging profile. Two of its behaviours matter to the reproduction:
//
//   - Charging dissipates real heat in the pack (I²R plus charge
//     inefficiency), which is what warms the back cover in the paper's
//     "Charging" workload — heat the DVFS governor cannot remove.
//   - Discharge losses grow with load, adding a small thermal coupling
//     between the application processor's power draw and the battery
//     temperature (the coupling studied by Xie et al., ICCAD 2013, which
//     the paper cites).
//
// The model is deliberately lumped (single-cell equivalent): the paper's
// controller never observes battery current, only battery temperature, so
// pack-internal detail beyond the heat term would be invisible.
package battery

import (
	"fmt"
	"math"
)

// Config parameterizes a pack.
type Config struct {
	// CapacityWh is the energy capacity at a nominal voltage.
	CapacityWh float64
	// NominalV is the nominal cell voltage.
	NominalV float64
	// InternalOhm is the lumped internal resistance.
	InternalOhm float64
	// ChargeCurrentA is the constant-current phase current.
	ChargeCurrentA float64
	// CVThreshold is the state of charge where charging tapers from CC to
	// CV (current decays exponentially above it).
	CVThreshold float64
	// ChargeEff is the coulombic+conversion efficiency of charging; the
	// remainder dissipates as heat in the pack.
	ChargeEff float64
}

// Nexus4Config returns a 2100 mAh / 3.8 V pack, 1.2 A charger.
func Nexus4Config() Config {
	return Config{
		CapacityWh:     8.0,
		NominalV:       3.8,
		InternalOhm:    0.12,
		ChargeCurrentA: 1.2,
		CVThreshold:    0.8,
		ChargeEff:      0.88,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	if c.CapacityWh <= 0 {
		return fmt.Errorf("battery: CapacityWh must be positive")
	}
	if c.NominalV <= 0 {
		return fmt.Errorf("battery: NominalV must be positive")
	}
	if c.InternalOhm < 0 {
		return fmt.Errorf("battery: InternalOhm must be non-negative")
	}
	if c.ChargeEff <= 0 || c.ChargeEff > 1 {
		return fmt.Errorf("battery: ChargeEff must be in (0,1]")
	}
	if c.CVThreshold <= 0 || c.CVThreshold >= 1 {
		return fmt.Errorf("battery: CVThreshold must be in (0,1)")
	}
	return nil
}

// Pack is the runtime state of a battery.
type Pack struct {
	cfg Config
	soc float64 // state of charge in [0,1]

	// invCapJ is 1/(3600·CapacityWh): Wh-per-joule of pack capacity,
	// precomputed so the per-tick drain update is division-free.
	invCapJ float64
}

// New creates a pack at the given initial state of charge (clamped to
// [0,1]).
func New(cfg Config, initialSoC float64) (*Pack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pack{cfg: cfg, soc: clamp01(initialSoC), invCapJ: 1 / (3600 * cfg.CapacityWh)}, nil
}

// Reset returns the pack to the given state of charge, as if freshly
// constructed; the fleet's phone pool uses it to recycle packs across
// jobs.
func (p *Pack) Reset(initialSoC float64) { p.soc = clamp01(initialSoC) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SoC returns the state of charge in [0,1].
func (p *Pack) SoC() float64 { return p.soc }

// OCV returns the open-circuit voltage for the current state of charge — a
// simple two-knee lithium curve between 3.3 V (empty) and 4.35 V (full).
func (p *Pack) OCV() float64 {
	s := p.soc
	switch {
	case s < 0.1:
		return 3.3 + s/0.1*0.3
	case s < 0.9:
		return 3.6 + (s-0.1)/0.8*0.5
	default:
		return 4.1 + (s-0.9)/0.1*0.25
	}
}

// Discharge drains loadWatts for dt seconds and returns the heat generated
// inside the pack over that interval, in watts. Heat comes from I²R at the
// pack's internal resistance. An empty pack still reports the load's heat
// but cannot go below 0 % (a real phone would have shut down; the
// simulation keeps running so thermal experiments do not truncate).
func (p *Pack) Discharge(loadWatts, dt float64) (heatWatts float64) {
	if loadWatts <= 0 || dt <= 0 {
		return 0
	}
	i := loadWatts / p.OCV()
	heat := i * i * p.cfg.InternalOhm
	p.soc = clamp01(p.soc - (loadWatts+heat)*dt*p.invCapJ)
	return heat
}

// DischargeHeat returns the I²R heat rate (watts) a Discharge of
// loadWatts would report at the pack's current state of charge, without
// draining anything. The heat rate depends only on the load and the SoC,
// so callers that hold a load constant over a window can peek the rate up
// front and apply one Discharge(loadWatts, window) afterwards: the drain
// and the returned heat match a peek-then-drain exactly (the event engine
// relies on this to freeze battery heat across a held segment).
func (p *Pack) DischargeHeat(loadWatts float64) (heatWatts float64) {
	if loadWatts <= 0 {
		return 0
	}
	i := loadWatts / p.OCV()
	return i * i * p.cfg.InternalOhm
}

// Charge advances a charging interval of dt seconds and returns the heat
// dissipated in the pack (inefficiency + I²R) and the electrical power
// actually stored. Charging follows CC below CVThreshold and an
// exponential taper above it; a full pack draws (and dissipates) nothing.
func (p *Pack) Charge(dt float64) (heatWatts, storedWatts float64) {
	if dt <= 0 || p.soc >= 1 {
		return 0, 0
	}
	current := p.cfg.ChargeCurrentA
	if p.soc > p.cfg.CVThreshold {
		// Exponential taper: current falls to ~10 % across the CV region.
		frac := (p.soc - p.cfg.CVThreshold) / (1 - p.cfg.CVThreshold)
		current *= math.Exp(-2.3 * frac)
	}
	inPower := current * p.OCV() / p.cfg.ChargeEff
	stored := current * p.OCV()
	heat := (inPower - stored) + current*current*p.cfg.InternalOhm
	p.soc = clamp01(p.soc + stored*dt/3600/p.cfg.CapacityWh)
	return heat, stored
}
