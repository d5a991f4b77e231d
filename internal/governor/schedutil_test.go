package governor

import "testing"

func TestSchedutilScalesWithUtil(t *testing.T) {
	g := NewSchedutil(freqs)
	// util 0.5 at 1026 MHz: need 1.25·0.5·1026 = 641 -> 702 (level 3).
	if got := g.NextLevel(State{Util: 0.5, CurrentLevel: 6}); got != 3 {
		t.Fatalf("NextLevel = %d want 3", got)
	}
}

func TestSchedutilSaturatesAtMax(t *testing.T) {
	g := NewSchedutil(freqs)
	if got := g.NextLevel(State{Util: 1.0, CurrentLevel: 11}); got != 11 {
		t.Fatalf("NextLevel = %d want 11", got)
	}
}

func TestSchedutilIdleFallsToFloor(t *testing.T) {
	g := NewSchedutil(freqs)
	if got := g.NextLevel(State{Util: 0.0, CurrentLevel: 11}); got != 0 {
		t.Fatalf("NextLevel = %d want 0", got)
	}
}

func TestSchedutilConvergesWithFeedback(t *testing.T) {
	g := NewSchedutil(freqs)
	demand := 2400.0
	level := 11
	for i := 0; i < 50; i++ {
		capacity := freqs[level] * 4
		util := demand / capacity
		if util > 1 {
			util = 1
		}
		level = g.NextLevel(State{Util: util, CurrentLevel: level})
	}
	// Converged frequency must serve the demand with the 1.25 headroom:
	// demand/4 = 600 MHz/core -> need ≈ 750 -> 810 (level 4).
	if level < 3 || level > 5 {
		t.Fatalf("converged at level %d, want 3-5", level)
	}
}

func TestSchedutilClampsBadCurrentLevel(t *testing.T) {
	g := NewSchedutil(freqs)
	for _, cl := range []int{-5, 50} {
		if got := g.NextLevel(State{Util: 0.5, CurrentLevel: cl}); got < 0 || got > 11 {
			t.Fatalf("out-of-range result %d", got)
		}
	}
	if g.Name() != "schedutil" {
		t.Fatalf("Name = %q", g.Name())
	}
}
