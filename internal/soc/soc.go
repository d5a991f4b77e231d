// Package soc models the application processor of the simulated handset: a
// DVFS-capable multi-core CPU with the Nexus 4's twelve operating
// performance points (OPPs) between 384 MHz and 1.512 GHz, a
// voltage-dependent dynamic power model, temperature-dependent leakage, and
// a GPU power envelope.
//
// The governor-facing contract matches a Linux cpufreq device: a discrete
// table of frequency levels, a current level, and an externally imposed
// maximum level (the scaling_max_freq clamp that USTA manipulates).
package soc

import (
	"fmt"
	"math"
)

// OPP is one operating performance point of the CPU.
type OPP struct {
	FreqMHz  float64 // core clock in MHz
	VoltageV float64 // supply voltage in volts
}

// Config holds the physical parameters of the SoC model.
type Config struct {
	// OPPs must be sorted by ascending frequency.
	OPPs []OPP
	// NumCores is the number of identical CPU cores.
	NumCores int
	// CeffPerCore is the effective switched capacitance per core in farads;
	// dynamic power is NumCores·Ceff·V²·f·util.
	CeffPerCore float64
	// LeakRefWatts is the total leakage power at LeakRefTempC and the top
	// OPP voltage.
	LeakRefWatts float64
	// LeakRefTempC is the reference temperature for LeakRefWatts.
	LeakRefTempC float64
	// LeakDoubleC is the die-temperature increase that doubles leakage.
	LeakDoubleC float64
	// GPUMaxWatts is the GPU power at 100 % GPU load.
	GPUMaxWatts float64
	// IdleWatts is the floor power of the always-on domain (buses, caches,
	// rail overheads) attributed to the die even at zero utilization.
	IdleWatts float64
}

// Nexus4Config returns the APQ8064-like parameter set: twelve OPPs from
// 384 MHz to 1.512 GHz (the paper's "twelve frequency levels between 384MHz
// and 1.512GHz"), four cores, and power constants calibrated so a fully
// loaded CPU at the top OPP dissipates ≈3.2 W dynamic + temperature-
// dependent leakage.
func Nexus4Config() Config {
	freqs := []float64{384, 486, 594, 702, 810, 918, 1026, 1134, 1242, 1350, 1458, 1512}
	volts := []float64{0.950, 0.975, 1.000, 1.025, 1.050, 1.075, 1.100, 1.125, 1.175, 1.200, 1.225, 1.250}
	opps := make([]OPP, len(freqs))
	for i := range freqs {
		opps[i] = OPP{FreqMHz: freqs[i], VoltageV: volts[i]}
	}
	return Config{
		OPPs:         opps,
		NumCores:     4,
		CeffPerCore:  0.34e-9,
		LeakRefWatts: 0.15,
		LeakRefTempC: 25,
		LeakDoubleC:  25,
		GPUMaxWatts:  1.3,
		IdleWatts:    0.06,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	if len(c.OPPs) == 0 {
		return fmt.Errorf("soc: config needs at least one OPP")
	}
	for i := 1; i < len(c.OPPs); i++ {
		if c.OPPs[i].FreqMHz <= c.OPPs[i-1].FreqMHz {
			return fmt.Errorf("soc: OPPs must be strictly ascending in frequency (index %d)", i)
		}
		if c.OPPs[i].VoltageV < c.OPPs[i-1].VoltageV {
			return fmt.Errorf("soc: OPP voltage must be non-decreasing with frequency (index %d)", i)
		}
	}
	if c.NumCores <= 0 {
		return fmt.Errorf("soc: NumCores must be positive")
	}
	if c.CeffPerCore <= 0 {
		return fmt.Errorf("soc: CeffPerCore must be positive")
	}
	if c.LeakDoubleC <= 0 {
		return fmt.Errorf("soc: LeakDoubleC must be positive")
	}
	return nil
}

// CPU is the runtime state of the processor: its configuration, the
// current DVFS level, the current maximum-level clamp, and the number of
// online cores (the Nexus 4's mpdecision hotplugs cores at runtime).
type CPU struct {
	cfg      Config
	level    int
	maxLevel int
	online   int
}

// New creates a CPU at the lowest OPP with no frequency clamp and all
// cores online.
func New(cfg Config) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CPU{cfg: cfg, level: 0, maxLevel: len(cfg.OPPs) - 1, online: cfg.NumCores}, nil
}

// NumLevels returns the number of OPPs.
func (c *CPU) NumLevels() int { return len(c.cfg.OPPs) }

// Reset returns the CPU to its power-on state — lowest OPP, no frequency
// clamp, all cores online — exactly the state New constructs. The fleet's
// phone pool uses it to recycle CPUs across jobs.
func (c *CPU) Reset() {
	c.level = 0
	c.maxLevel = len(c.cfg.OPPs) - 1
	c.online = c.cfg.NumCores
}

// Level returns the current DVFS level index (0 = slowest).
func (c *CPU) Level() int { return c.level }

// MaxLevel returns the current clamp: the highest level the governor may
// select (scaling_max_freq).
func (c *CPU) MaxLevel() int { return c.maxLevel }

// SetMaxLevel clamps future level selections to at most lvl (and lowers the
// current level immediately if it now exceeds the clamp). Values are
// saturated into the valid range.
func (c *CPU) SetMaxLevel(lvl int) {
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(c.cfg.OPPs) {
		lvl = len(c.cfg.OPPs) - 1
	}
	c.maxLevel = lvl
	if c.level > lvl {
		c.level = lvl
	}
}

// SetLevel requests DVFS level lvl; the effective level is saturated into
// [0, MaxLevel]. It returns the level actually applied.
func (c *CPU) SetLevel(lvl int) int {
	if lvl < 0 {
		lvl = 0
	}
	if lvl > c.maxLevel {
		lvl = c.maxLevel
	}
	c.level = lvl
	return lvl
}

// FreqMHz returns the frequency of the current level.
func (c *CPU) FreqMHz() float64 { return c.cfg.OPPs[c.level].FreqMHz }

// OnlineCores returns the number of cores currently online.
func (c *CPU) OnlineCores() int { return c.online }

// SetOnlineCores hotplugs cores: the count is clamped to [1, NumCores].
func (c *CPU) SetOnlineCores(n int) {
	if n < 1 {
		n = 1
	}
	if n > c.cfg.NumCores {
		n = c.cfg.NumCores
	}
	c.online = n
}

// CapacityMHz returns the total compute capacity at the current level in
// aggregate core-MHz (frequency × online cores). Workload demand is
// expressed in the same unit, so utilization = demand / capacity.
func (c *CPU) CapacityMHz() float64 {
	return c.cfg.OPPs[c.level].FreqMHz * float64(c.online)
}

// MaxCapacityMHz returns capacity at the top OPP with every core online,
// ignoring the clamp. This is the demand-normalization reference, so it is
// intentionally independent of the hotplug state.
func (c *CPU) MaxCapacityMHz() float64 {
	return c.cfg.OPPs[len(c.cfg.OPPs)-1].FreqMHz * float64(c.cfg.NumCores)
}

// DynamicPower returns the switching power in watts at the current level
// for the given aggregate utilization in [0,1], across the online cores.
func (c *CPU) DynamicPower(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	opp := c.cfg.OPPs[c.level]
	fHz := opp.FreqMHz * 1e6
	return float64(c.online) * c.cfg.CeffPerCore * opp.VoltageV * opp.VoltageV * fHz * util
}

// exp2fast computes 2^x for the moderate exponents leakage scaling
// produces (|x| ≤ 16 covers any physical die temperature). It splits x
// into integer and fractional parts, evaluates e^(f·ln2) by a short
// Taylor series and applies the integer exponent by constructing the
// float's exponent bits directly. Relative error is below 1e-10 —
// orders of magnitude inside the leakage model's own fidelity — while
// costing a fraction of the library call that dominates the simulator's
// per-tick power model otherwise. Out-of-range inputs fall back to
// math.Exp2.
func exp2fast(x float64) float64 {
	if x < -16 || x > 16 {
		return math.Exp2(x)
	}
	k := math.Floor(x)
	y := (x - k) * math.Ln2 // in [0, ln2)
	// e^y via a degree-10 Taylor sum in Estrin form: the truncated term
	// y¹¹/11! is < 5e-10 at y = ln2, and the tree-shaped evaluation keeps
	// the dependency chain short.
	const (
		c2  = 1.0 / 2
		c3  = 1.0 / 6
		c4  = 1.0 / 24
		c5  = 1.0 / 120
		c6  = 1.0 / 720
		c7  = 1.0 / 5040
		c8  = 1.0 / 40320
		c9  = 1.0 / 362880
		c10 = 1.0 / 3628800
	)
	y2 := y * y
	y4 := y2 * y2
	p := (1 + y) + y2*(c2+c3*y) +
		y4*((c4+c5*y)+y2*(c6+c7*y)+y4*((c8+c9*y)+y2*c10))
	scale := math.Float64frombits(uint64(1023+int64(k)) << 52)
	return p * scale
}

// LeakagePower returns the leakage power in watts at the current voltage
// and the given die temperature in °C. Leakage scales linearly with
// voltage, exponentially (base-2 per LeakDoubleC) with temperature, and
// proportionally with the online-core count (offline cores are
// power-gated).
func (c *CPU) LeakagePower(dieTempC float64) float64 {
	vTop := c.cfg.OPPs[len(c.cfg.OPPs)-1].VoltageV
	vScale := c.cfg.OPPs[c.level].VoltageV / vTop
	tScale := exp2fast((dieTempC - c.cfg.LeakRefTempC) / c.cfg.LeakDoubleC)
	coreScale := float64(c.online) / float64(c.cfg.NumCores)
	return c.cfg.LeakRefWatts * vScale * tScale * coreScale
}

// Power returns total die power (dynamic + leakage + idle floor) in watts
// for the given utilization and die temperature.
func (c *CPU) Power(util, dieTempC float64) float64 {
	return c.DynamicPower(util) + c.LeakagePower(dieTempC) + c.cfg.IdleWatts
}

// GPUPower returns GPU power in watts for a GPU load in [0,1].
func (c *CPU) GPUPower(load float64) float64 {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	return c.cfg.GPUMaxWatts * load
}
