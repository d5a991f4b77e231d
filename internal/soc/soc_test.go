package soc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNexus4ConfigShape(t *testing.T) {
	cfg := Nexus4Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.OPPs) != 12 {
		t.Fatalf("Nexus 4 must expose 12 OPPs, got %d", len(cfg.OPPs))
	}
	if cfg.OPPs[0].FreqMHz != 384 {
		t.Fatalf("bottom OPP = %v MHz want 384", cfg.OPPs[0].FreqMHz)
	}
	if cfg.OPPs[11].FreqMHz != 1512 {
		t.Fatalf("top OPP = %v MHz want 1512", cfg.OPPs[11].FreqMHz)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Nexus4Config()

	c := good
	c.OPPs = nil
	if c.Validate() == nil {
		t.Fatal("empty OPP table accepted")
	}

	c = good
	c.OPPs = []OPP{{1000, 1.0}, {900, 1.1}}
	if c.Validate() == nil {
		t.Fatal("descending frequencies accepted")
	}

	c = good
	c.OPPs = []OPP{{900, 1.1}, {1000, 1.0}}
	if c.Validate() == nil {
		t.Fatal("decreasing voltage accepted")
	}

	c = good
	c.NumCores = 0
	if c.Validate() == nil {
		t.Fatal("zero cores accepted")
	}

	c = good
	c.CeffPerCore = 0
	if c.Validate() == nil {
		t.Fatal("zero Ceff accepted")
	}

	c = good
	c.LeakDoubleC = 0
	if c.Validate() == nil {
		t.Fatal("zero leak doubling accepted")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestLevelSaturation(t *testing.T) {
	c := MustNew(Nexus4Config())
	if got := c.SetLevel(-3); got != 0 {
		t.Fatalf("SetLevel(-3) applied %d want 0", got)
	}
	if got := c.SetLevel(99); got != 11 {
		t.Fatalf("SetLevel(99) applied %d want 11", got)
	}
	if c.FreqMHz() != 1512 {
		t.Fatalf("FreqMHz = %v want 1512", c.FreqMHz())
	}
}

func TestMaxLevelClampLowersCurrentLevel(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(11)
	c.SetMaxLevel(4)
	if c.Level() != 4 {
		t.Fatalf("clamp should drag current level down, got %d", c.Level())
	}
	if got := c.SetLevel(10); got != 4 {
		t.Fatalf("SetLevel above clamp applied %d want 4", got)
	}
	c.ClearMaxLevel()
	if got := c.SetLevel(10); got != 10 {
		t.Fatalf("after ClearMaxLevel SetLevel applied %d want 10", got)
	}
}

func TestSetMaxLevelSaturates(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetMaxLevel(-5)
	if c.MaxLevel() != 0 {
		t.Fatalf("MaxLevel = %d want 0", c.MaxLevel())
	}
	c.SetMaxLevel(100)
	if c.MaxLevel() != 11 {
		t.Fatalf("MaxLevel = %d want 11", c.MaxLevel())
	}
}

func TestLevelForFreq(t *testing.T) {
	c := MustNew(Nexus4Config())
	cases := []struct {
		mhz  float64
		want int
	}{
		{0, 0}, {384, 0}, {385, 1}, {486, 1}, {1000, 6}, {1512, 11}, {9999, 11},
	}
	for _, tc := range cases {
		if got := c.LevelForFreq(tc.mhz); got != tc.want {
			t.Fatalf("LevelForFreq(%v) = %d want %d", tc.mhz, got, tc.want)
		}
	}
}

func TestCapacityScalesWithFreqAndCores(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(0)
	if got := c.CapacityMHz(); got != 384*4 {
		t.Fatalf("capacity at L0 = %v want %v", got, 384*4)
	}
	c.SetLevel(11)
	if got := c.CapacityMHz(); got != 1512*4 {
		t.Fatalf("capacity at L11 = %v want %v", got, 1512*4)
	}
	if c.MaxCapacityMHz() != 1512*4 {
		t.Fatalf("MaxCapacityMHz = %v", c.MaxCapacityMHz())
	}
	if c.CapacityAtLevelMHz(3) != 702*4 {
		t.Fatalf("CapacityAtLevelMHz(3) = %v", c.CapacityAtLevelMHz(3))
	}
}

func TestDynamicPowerCalibration(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(11)
	p := c.DynamicPower(1)
	if p < 2.8 || p > 3.6 {
		t.Fatalf("full-load dynamic power = %.2f W, want ≈3.2", p)
	}
	if got := c.DynamicPower(0); got != 0 {
		t.Fatalf("zero-util dynamic power = %v want 0", got)
	}
	if got := c.DynamicPower(0.5); math.Abs(got-p/2) > 1e-9 {
		t.Fatalf("dynamic power must be linear in util: %v vs %v", got, p/2)
	}
}

func TestDynamicPowerUtilClamped(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(5)
	if c.DynamicPower(2) != c.DynamicPower(1) {
		t.Fatal("util > 1 must clamp")
	}
	if c.DynamicPower(-1) != 0 {
		t.Fatal("util < 0 must clamp to 0")
	}
}

func TestDynamicPowerMonotoneInLevel(t *testing.T) {
	c := MustNew(Nexus4Config())
	prev := -1.0
	for l := 0; l < c.NumLevels(); l++ {
		c.SetLevel(l)
		p := c.DynamicPower(1)
		if p <= prev {
			t.Fatalf("dynamic power not increasing at level %d: %v <= %v", l, p, prev)
		}
		prev = p
	}
}

func TestLeakageDoublesPerConfiguredDelta(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(11)
	l25 := c.LeakagePower(25)
	l50 := c.LeakagePower(50)
	if math.Abs(l50/l25-2) > 1e-9 {
		t.Fatalf("leakage at +25 °C should double: %v -> %v", l25, l50)
	}
	if math.Abs(l25-0.15) > 1e-9 {
		t.Fatalf("reference leakage = %v want 0.15", l25)
	}
}

func TestLeakageLowerAtLowerVoltage(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(11)
	top := c.LeakagePower(60)
	c.SetLevel(0)
	bottom := c.LeakagePower(60)
	if bottom >= top {
		t.Fatalf("leakage at 0.95 V (%v) should be below 1.25 V (%v)", bottom, top)
	}
}

func TestTotalPowerIncludesIdleFloor(t *testing.T) {
	c := MustNew(Nexus4Config())
	c.SetLevel(0)
	p := c.Power(0, 25)
	if p <= 0 {
		t.Fatal("idle power must be positive")
	}
	floor := c.Config().IdleWatts
	if p < floor {
		t.Fatalf("total power %v below idle floor %v", p, floor)
	}
}

func TestGPUPower(t *testing.T) {
	c := MustNew(Nexus4Config())
	if c.GPUPower(0) != 0 {
		t.Fatal("GPU idle power must be 0")
	}
	if got := c.GPUPower(1); got != c.Config().GPUMaxWatts {
		t.Fatalf("GPU full power = %v want %v", got, c.Config().GPUMaxWatts)
	}
	if c.GPUPower(2) != c.GPUPower(1) || c.GPUPower(-1) != 0 {
		t.Fatal("GPU load must clamp to [0,1]")
	}
}

// Property: power is monotone non-decreasing in utilization at any level and
// temperature.
func TestPowerMonotoneInUtilProperty(t *testing.T) {
	c := MustNew(Nexus4Config())
	f := func(rawLevel int, u1, u2, temp float64) bool {
		lvl := ((rawLevel % 12) + 12) % 12
		c.SetMaxLevel(11)
		c.SetLevel(lvl)
		a, b := math.Mod(math.Abs(u1), 1), math.Mod(math.Abs(u2), 1)
		if a > b {
			a, b = b, a
		}
		tc := 20 + math.Mod(math.Abs(temp), 80)
		return c.Power(a, tc) <= c.Power(b, tc)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the level actually applied never exceeds the clamp.
func TestClampInvariantProperty(t *testing.T) {
	c := MustNew(Nexus4Config())
	f := func(clamp, req int) bool {
		c.SetMaxLevel(clamp)
		applied := c.SetLevel(req)
		return applied <= c.MaxLevel() && applied >= 0 && applied < c.NumLevels()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExp2FastAccuracy(t *testing.T) {
	for x := -16.0; x <= 16.0; x += 0.0137 {
		want := math.Exp2(x)
		got := exp2fast(x)
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Fatalf("exp2fast(%v) = %v want %v (rel err %.2e)", x, got, want, rel)
		}
	}
	// Out-of-range inputs must fall back to the library implementation.
	if got := exp2fast(40); got != math.Exp2(40) {
		t.Fatalf("fallback broken: %v", got)
	}
	if got := exp2fast(-40); got != math.Exp2(-40) {
		t.Fatalf("fallback broken: %v", got)
	}
}

// MustNew is New that panics on configuration errors; intended for
// hard-coded configurations.
func MustNew(cfg Config) *CPU {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the CPU's configuration.
func (c *CPU) Config() Config { return c.cfg }

// ClearMaxLevel removes the frequency clamp.
func (c *CPU) ClearMaxLevel() { c.maxLevel = len(c.cfg.OPPs) - 1 }

// LevelForFreq returns the lowest level whose frequency is >= freqMHz, or
// the top level if freqMHz exceeds the table. This mirrors cpufreq's
// CPUFREQ_RELATION_L frequency resolution.
func (c *CPU) LevelForFreq(freqMHz float64) int {
	for i, opp := range c.cfg.OPPs {
		if opp.FreqMHz >= freqMHz {
			return i
		}
	}
	return len(c.cfg.OPPs) - 1
}

// CapacityAtLevelMHz returns capacity for an arbitrary level at the
// current online-core count.
func (c *CPU) CapacityAtLevelMHz(lvl int) float64 {
	return c.cfg.OPPs[lvl].FreqMHz * float64(c.online)
}
