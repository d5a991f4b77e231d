package thermal

import (
	"math"
	"testing"
)

// ladderPhone builds a fresh phone network with a representative power
// injection so jumps have something to integrate.
func ladderPhone(t *testing.T) (*Network, PhoneNodes) {
	t.Helper()
	net, nodes := NewPhone(DefaultPhoneConfig())
	net.SetPower(nodes.Die, 2.1)
	net.SetPower(nodes.Pkg, 0.4)
	net.SetPower(nodes.Battery, 0.15)
	net.SetPower(nodes.Screen, 0.45)
	return net, nodes
}

func ladderTaps(nodes PhoneNodes, dt float64) []Tap {
	// Alphas in the range the device's sensor lag filters use
	// (1 - exp(-dt/tau) for tau of 1-2 s at dt = 0.05).
	a := func(tau float64) float64 { return 1 - math.Exp(-dt/tau) }
	return []Tap{
		{Node: nodes.Die, Alpha: a(2.0)},
		{Node: nodes.Battery, Alpha: a(2.0)},
		{Node: nodes.CoverMid, Alpha: a(1.0)},
		{Node: nodes.Screen, Alpha: a(1.0)},
	}
}

// TestLadderJumpMatchesSequential pins the jump arithmetic: one Advance of
// N ticks must match N sequential one-tick advances (propagator steps plus
// the tap recurrence) to tight float tolerance, for a spread of tick
// counts crossing every ladder level and the chunking path.
func TestLadderJumpMatchesSequential(t *testing.T) {
	const dt = 0.05
	for _, ticks := range []int{1, 2, 3, 7, 19, 20, 64, 255, 256, 1000} {
		jumpNet, nodes := ladderPhone(t)
		seqNet, _ := ladderPhone(t)
		taps := ladderTaps(nodes, dt)
		l := jumpNet.LadderFor(dt, taps)
		if l == nil {
			t.Fatal("LadderFor returned nil on the default phone")
		}

		jumpStates := []float64{30, 29, 28, 27}
		seqStates := append([]float64(nil), jumpStates...)
		var sc LadderScratch
		l.Advance(jumpNet, jumpStates, ticks, &sc)

		for k := 0; k < ticks; k++ {
			seqNet.Step(dt)
			for i, tp := range taps {
				seqStates[i] += tp.Alpha * (seqNet.Temp(tp.Node) - seqStates[i])
			}
		}

		const tol = 1e-9
		for i := 0; i < jumpNet.NumNodes(); i++ {
			if d := math.Abs(jumpNet.Temp(NodeID(i)) - seqNet.Temp(NodeID(i))); d > tol {
				t.Fatalf("ticks=%d node %d: jump %.15g vs seq %.15g (|d|=%g)",
					ticks, i, jumpNet.Temp(NodeID(i)), seqNet.Temp(NodeID(i)), d)
			}
		}
		for i := range jumpStates {
			if d := math.Abs(jumpStates[i] - seqStates[i]); d > tol {
				t.Fatalf("ticks=%d tap %d: jump %.15g vs seq %.15g (|d|=%g)",
					ticks, i, jumpStates[i], seqStates[i], d)
			}
		}
	}
}

// TestLadderHeldAmbientAndPower pins that Advance freezes the drive at
// call time: two jumps with different held powers/ambients from the same
// state must differ, and match their own sequential replays.
func TestLadderHeldAmbientAndPower(t *testing.T) {
	const dt, ticks = 0.05, 37
	run := func(power, ambient float64) float64 {
		net, nodes := ladderPhone(t)
		net.SetAmbient(ambient)
		net.SetPower(nodes.Die, power)
		l := net.LadderFor(dt, nil)
		if l == nil {
			t.Fatal("nil ladder")
		}
		var sc LadderScratch
		l.Advance(net, nil, ticks, &sc)
		return net.Temp(nodes.Die)
	}
	hot := run(3.0, 25)
	cold := run(0.3, 25)
	colder := run(0.3, 10)
	if !(hot > cold && cold > colder) {
		t.Fatalf("held drive ordering violated: hot=%v cold=%v colder=%v", hot, cold, colder)
	}
}

// TestLadderCacheOnePerFingerprint pins the cache contract: repeated
// LadderFor calls for one configuration hit a single cached ladder, and a
// touch flip (new fingerprint) builds exactly one more — the two
// fingerprints an event-driven run alternates between.
func TestLadderCacheOnePerFingerprint(t *testing.T) {
	const dt = 0.05
	cfg := DefaultPhoneConfig()
	cfg.CapDie *= 1.000000123 // unique fingerprint: this test owns its cache entries
	net, nodes := NewPhone(cfg)
	taps := ladderTaps(nodes, dt)

	_, missesBefore := sharedLadders.stats()
	l1 := net.LadderFor(dt, taps)
	if l1 == nil {
		t.Fatal("nil ladder")
	}
	for i := 0; i < 5; i++ {
		if got := net.LadderFor(dt, taps); got != l1 {
			t.Fatal("repeat LadderFor did not return the cached ladder")
		}
	}
	ApplyTouch(net, nodes, cfg, true)
	lTouch := net.LadderFor(dt, taps)
	if lTouch == nil || lTouch == l1 {
		t.Fatalf("touch flip should build a distinct ladder (got %p vs %p)", lTouch, l1)
	}
	if lTouch.sig == l1.sig {
		t.Fatal("touch flip did not change the fingerprint")
	}
	ApplyTouch(net, nodes, cfg, false)
	if got := net.LadderFor(dt, taps); got != l1 {
		t.Fatal("untouch did not return to the original cached ladder")
	}
	_, missesAfter := sharedLadders.stats()
	if builds := missesAfter - missesBefore; builds != 2 {
		t.Fatalf("expected exactly 2 ladder builds (touch on/off), got %d", builds)
	}

	// A second network with the identical configuration shares the entry.
	net2, _ := NewPhone(cfg)
	if got := net2.LadderFor(dt, taps); got != l1 {
		t.Fatal("identical configuration on a fresh network missed the shared cache")
	}
}

// TestLadderCacheBounded pins LRU eviction: sweeping more distinct dts
// than the cap never grows the cache beyond it.
func TestLadderCacheBounded(t *testing.T) {
	net, nodes := NewPhone(DefaultPhoneConfig())
	taps := ladderTaps(nodes, 0.05)
	for i := 0; i < maxSharedLadders+40; i++ {
		dt := 0.01 + float64(i)*1e-5
		if net.LadderFor(dt, taps) == nil {
			t.Fatalf("nil ladder at dt=%v", dt)
		}
	}
	if n := sharedLadders.len(); n > maxSharedLadders {
		t.Fatalf("ladder cache grew to %d entries (cap %d)", n, maxSharedLadders)
	}
}

// TestLadderCompositeMatchesAdvance pins the fused-propagator fast path:
// AdvanceComposite must land on the same state as the per-set-bit Advance
// to tight float tolerance for every segment length the event engine
// produces (and the chunked fallback beyond MaxChunk), memoizing exactly
// one composite per (ladder, tick count) along the way.
func TestLadderCompositeMatchesAdvance(t *testing.T) {
	const dt = 0.05
	cfg := DefaultPhoneConfig()
	cfg.CapDie *= 1.000000456 // unique fingerprint: this test owns its ladder's memo
	mkNet := func() (*Network, PhoneNodes) {
		net, nodes := NewPhone(cfg)
		net.SetPower(nodes.Die, 2.1)
		net.SetPower(nodes.Pkg, 0.4)
		net.SetPower(nodes.Battery, 0.15)
		net.SetPower(nodes.Screen, 0.45)
		return net, nodes
	}
	var lad *Ladder
	lengths := []int{1, 2, 3, 7, 19, 20, 64, 255}
	for _, ticks := range lengths {
		compNet, nodes := mkNet()
		bitNet, _ := mkNet()
		taps := ladderTaps(nodes, dt)
		l := compNet.LadderFor(dt, taps)
		if l == nil {
			t.Fatal("nil ladder")
		}
		if lad == nil {
			lad = l
		} else if l != lad {
			t.Fatal("identical configurations produced distinct ladders")
		}
		compStates := []float64{30, 29, 28, 27}
		bitStates := append([]float64(nil), compStates...)
		var sc1, sc2 LadderScratch
		l.AdvanceComposite(compNet, compStates, ticks, &sc1)
		l.Advance(bitNet, bitStates, ticks, &sc2)

		const tol = 1e-9
		for i := 0; i < compNet.NumNodes(); i++ {
			if d := math.Abs(compNet.Temp(NodeID(i)) - bitNet.Temp(NodeID(i))); d > tol {
				t.Fatalf("ticks=%d node %d: composite %.15g vs advance %.15g (|d|=%g)",
					ticks, i, compNet.Temp(NodeID(i)), bitNet.Temp(NodeID(i)), d)
			}
		}
		for i := range compStates {
			if d := math.Abs(compStates[i] - bitStates[i]); d > tol {
				t.Fatalf("ticks=%d tap %d: composite %.15g vs advance %.15g (|d|=%g)",
					ticks, i, compStates[i], bitStates[i], d)
			}
		}
	}
	if got := lad.compositeCount(); got != len(lengths) {
		t.Fatalf("memo holds %d composites, want one per length = %d", got, len(lengths))
	}

	// Repeats of an already-seen length must not grow the memo, and a
	// jump past MaxChunk must take the chunked fallback without caching.
	net, _ := mkNet()
	states := []float64{30, 29, 28, 27}
	var sc LadderScratch
	lad.AdvanceComposite(net, states, 19, &sc)
	lad.AdvanceComposite(net, states, lad.MaxChunk()+1, &sc)
	if got := lad.compositeCount(); got != len(lengths) {
		t.Fatalf("memo grew to %d on repeat/overlong jumps, want %d", got, len(lengths))
	}
}

// TestLadderRK4Fallback pins the degradation contract: a network forced
// onto RK4 (the non-cacheable configuration) reports no ladder, so event
// callers fall back to tick stepping.
func TestLadderRK4Fallback(t *testing.T) {
	net, nodes := ladderPhone(t)
	net.UseRK4(true)
	if l := net.LadderFor(0.05, ladderTaps(nodes, 0.05)); l != nil {
		t.Fatal("RK4-forced network still produced a ladder")
	}
	net.UseRK4(false)
	if l := net.LadderFor(0.05, ladderTaps(nodes, 0.05)); l == nil {
		t.Fatal("ladder unavailable after releasing RK4")
	}
}

// compositeCount reports how many fused propagators the ladder has
// memoized (tests pin the one-entry-per-k behaviour through it).
func (l *Ladder) compositeCount() int {
	n := 0
	for i := range l.comp {
		if l.comp[i].Load() != nil {
			n++
		}
	}
	return n
}
