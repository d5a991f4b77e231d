package governor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

var freqs = []float64{384, 486, 594, 702, 810, 918, 1026, 1134, 1242, 1350, 1458, 1512}

func TestOndemandJumpsToMaxAboveThreshold(t *testing.T) {
	g := NewOndemand(freqs)
	got := g.NextLevel(State{Util: 0.95, CurrentLevel: 2})
	if got != len(freqs)-1 {
		t.Fatalf("NextLevel = %d want top (%d)", got, len(freqs)-1)
	}
}

func TestOndemandExactThresholdDoesNotJump(t *testing.T) {
	g := NewOndemand(freqs)
	// Util exactly at the threshold uses the proportional path (matches the
	// kernel's strict ">" comparison).
	got := g.NextLevel(State{Util: 0.80, CurrentLevel: 11})
	if got == len(freqs)-1 {
		// From the top level, 0.80 util targets 1512*0.8/0.7 > 1512, so the
		// proportional path also lands on top; use a mid level instead.
		got = g.NextLevel(State{Util: 0.80, CurrentLevel: 5})
		if got == len(freqs)-1 {
			t.Fatalf("exact-threshold util from L5 should not jump to max, got %d", got)
		}
	}
}

func TestOndemandScalesDownProportionally(t *testing.T) {
	g := NewOndemand(freqs)
	// At the top level with 35% util: need = 1512*0.35/0.70 = 756 -> the
	// lowest OPP >= 756 is 810 (level 4).
	got := g.NextLevel(State{Util: 0.35, CurrentLevel: 11})
	if got != 4 {
		t.Fatalf("NextLevel = %d want 4", got)
	}
}

func TestOndemandSteepDropWhenIdle(t *testing.T) {
	g := NewOndemand(freqs)
	got := g.NextLevel(State{Util: 0.02, CurrentLevel: 11})
	if got != 0 {
		t.Fatalf("near-idle from top should fall to the floor, got L%d", got)
	}
}

func TestOndemandStaysWhenLoadMatches(t *testing.T) {
	g := NewOndemand(freqs)
	// Util just at the down-target from a mid level: need = f_cur, stays.
	got := g.NextLevel(State{Util: 0.70, CurrentLevel: 5})
	if got != 5 {
		t.Fatalf("NextLevel = %d want 5 (hold)", got)
	}
}

func TestOndemandClampsBadCurrentLevel(t *testing.T) {
	g := NewOndemand(freqs)
	if got := g.NextLevel(State{Util: 0.5, CurrentLevel: -7}); got < 0 || got >= len(freqs) {
		t.Fatalf("NextLevel out of range: %d", got)
	}
	if got := g.NextLevel(State{Util: 0.5, CurrentLevel: 99}); got < 0 || got >= len(freqs) {
		t.Fatalf("NextLevel out of range: %d", got)
	}
}

func TestOndemandConvergesToServingFrequency(t *testing.T) {
	// Closed loop: demand of 2400 core-MHz on a 4-core chip. Simulate the
	// util feedback and check ondemand settles on a level that serves the
	// demand below the up-threshold but without gross over-provisioning.
	g := NewOndemand(freqs)
	demand := 2400.0 // aggregate core-MHz
	level := 0
	for i := 0; i < 50; i++ {
		capacity := freqs[level] * 4
		util := demand / capacity
		if util > 1 {
			util = 1
		}
		level = g.NextLevel(State{Util: util, CurrentLevel: level})
	}
	capacity := freqs[level] * 4
	util := demand / capacity
	if util > 0.80 {
		t.Fatalf("converged level %d leaves util %.2f above the up-threshold", level, util)
	}
	if freqs[level] > 1242 {
		t.Fatalf("converged level %d (%v MHz) grossly over-provisions a 600 MHz/core demand", level, freqs[level])
	}
}

func TestPerformanceGovernor(t *testing.T) {
	g := &Performance{NumLevels: 12}
	if got := g.NextLevel(State{Util: 0}); got != 11 {
		t.Fatalf("NextLevel = %d want 11", got)
	}
	if g.Name() != "performance" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestPowersaveGovernor(t *testing.T) {
	g := &Powersave{}
	if got := g.NextLevel(State{Util: 1}); got != 0 {
		t.Fatalf("NextLevel = %d want 0", got)
	}
}

func TestConservativeStepsUpAndDown(t *testing.T) {
	g := NewConservative(12)
	if got := g.NextLevel(State{Util: 0.9, CurrentLevel: 5}); got != 6 {
		t.Fatalf("step up: got %d want 6", got)
	}
	if got := g.NextLevel(State{Util: 0.1, CurrentLevel: 5}); got != 4 {
		t.Fatalf("step down: got %d want 4", got)
	}
	if got := g.NextLevel(State{Util: 0.5, CurrentLevel: 5}); got != 5 {
		t.Fatalf("hold: got %d want 5", got)
	}
}

func TestConservativeSaturates(t *testing.T) {
	g := NewConservative(12)
	if got := g.NextLevel(State{Util: 0.9, CurrentLevel: 11}); got != 11 {
		t.Fatalf("top saturation: got %d", got)
	}
	if got := g.NextLevel(State{Util: 0.05, CurrentLevel: 0}); got != 0 {
		t.Fatalf("bottom saturation: got %d", got)
	}
}

func TestUserspacePins(t *testing.T) {
	g := &Userspace{Level: 7}
	if got := g.NextLevel(State{Util: 1}); got != 7 {
		t.Fatalf("NextLevel = %d want 7", got)
	}
	if g.Name() != "userspace(L7)" {
		t.Fatalf("Name = %q", g.Name())
	}
}

// Property: ondemand's decision is monotone in utilization for a fixed
// current level.
func TestOndemandMonotoneInUtilProperty(t *testing.T) {
	g := NewOndemand(freqs)
	f := func(rawU1, rawU2 float64, rawLvl uint8) bool {
		u1 := clamp01(rawU1)
		u2 := clamp01(rawU2)
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		lvl := int(rawLvl) % 12
		l1 := g.NextLevel(State{Util: u1, CurrentLevel: lvl})
		l2 := g.NextLevel(State{Util: u2, CurrentLevel: lvl})
		return l1 <= l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every governor returns a level inside the table for any input.
func TestGovernorRangeProperty(t *testing.T) {
	govs := []Governor{
		NewOndemand(freqs), &Performance{NumLevels: 12}, &Powersave{},
		NewConservative(12), &Userspace{Level: 5},
	}
	f := func(rawU float64, rawLvl int16, which uint8) bool {
		g := govs[int(which)%len(govs)]
		lvl := g.NextLevel(State{Util: clamp01(rawU), CurrentLevel: int(rawLvl) % 14})
		return lvl >= 0 && lvl < 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Mod(math.Abs(v), 1)
}

// Userspace pins the CPU at a fixed, externally chosen level.
type Userspace struct {
	// Level is the pinned DVFS level.
	Level int
}

// Name implements Governor.
func (u *Userspace) Name() string { return fmt.Sprintf("userspace(L%d)", u.Level) }

// NextLevel implements Governor.
func (u *Userspace) NextLevel(State) int { return u.Level }
