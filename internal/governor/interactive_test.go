package governor

import "testing"

func TestInteractiveJumpsToHispeedOnSpike(t *testing.T) {
	g := NewInteractive(freqs)
	lvl := g.NextLevel(State{TimeSec: 1, Util: 0.95, CurrentLevel: 0})
	if got := freqs[lvl]; got < g.HispeedFreqMHz {
		t.Fatalf("spike from idle landed at %v MHz, want >= hispeed %v", got, g.HispeedFreqMHz)
	}
	if lvl == len(freqs)-1 {
		t.Fatalf("spike from idle should hit hispeed, not max (got top level)")
	}
}

func TestInteractiveRampsToMaxUnderSustainedLoad(t *testing.T) {
	g := NewInteractive(freqs)
	level := 0
	demand := 5800.0 // aggregate core-MHz, near the 6048 max
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 0.1
		capacity := freqs[level] * 4
		util := demand / capacity
		if util > 1 {
			util = 1
		}
		level = g.NextLevel(State{TimeSec: now, Util: util, CurrentLevel: level})
	}
	if level != len(freqs)-1 {
		t.Fatalf("sustained saturating load should reach the top level, got %d", level)
	}
}

func TestInteractiveHoldsBeforeRampDown(t *testing.T) {
	g := NewInteractive(freqs)
	// Jump up at t=1.
	lvl := g.NextLevel(State{TimeSec: 1.0, Util: 0.95, CurrentLevel: 2})
	// Load vanishes 50 ms later: dwell (200 ms) not expired, must hold.
	hold := g.NextLevel(State{TimeSec: 1.05, Util: 0.05, CurrentLevel: lvl})
	if hold != lvl {
		t.Fatalf("ramp-down before dwell expiry: %d -> %d", lvl, hold)
	}
	// After the dwell it may fall.
	down := g.NextLevel(State{TimeSec: 1.5, Util: 0.05, CurrentLevel: lvl})
	if down >= lvl {
		t.Fatalf("no ramp-down after dwell: %d -> %d", lvl, down)
	}
}

func TestInteractiveStableAtTargetLoad(t *testing.T) {
	g := NewInteractive(freqs)
	// Just below the hispeed trigger, a load whose target frequency maps
	// back to the current OPP must hold (0.84·1026/0.90 = 957 → 1026).
	lvl := g.NextLevel(State{TimeSec: 5, Util: 0.84, CurrentLevel: 6})
	if lvl != 6 {
		t.Fatalf("target-load hold broken: %d", lvl)
	}
}

func TestInteractiveRangeAndReset(t *testing.T) {
	g := NewInteractive(freqs)
	for _, u := range []float64{0, 0.2, 0.5, 0.86, 1} {
		for _, cl := range []int{-3, 0, 5, 11, 40} {
			lvl := g.NextLevel(State{TimeSec: 9, Util: u, CurrentLevel: cl})
			if lvl < 0 || lvl >= len(freqs) {
				t.Fatalf("out-of-range level %d for util %v cur %d", lvl, u, cl)
			}
		}
	}
	if g.Name() != "interactive" {
		t.Fatalf("Name = %q", g.Name())
	}
}
