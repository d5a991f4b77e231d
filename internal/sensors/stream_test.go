package sensors

import (
	"math"
	"math/rand"
	"testing"
)

// TestLegacyStreamReproducible pins the compat shim: a NoiseVersionLegacy
// sensor must consume exactly the math/rand stream the pre-versioning code
// consumed, so every committed golden stays valid. The stream's source
// (legacySource) reseeds by direct LCG powers rather than math/rand's
// serial warm-up, so the table covers the seed reduction's edges: seeds
// that reduce to 0 mod 2³¹−1 (the 89482311 substitution), negative seeds
// and the int64 extremes. 1,300 draws wrap the 607-word register twice,
// and every case reseeds after its draws.
func TestLegacyStreamReproducible(t *testing.T) {
	const (
		int32max = math.MaxInt32
		draws    = 1300
	)
	seeds := []int64{
		0, 1, -1, 421, -421, 89482311,
		int32max, 2 * int32max, -int32max, -3 * int32max, 1 << 20 * int32max,
		int32max - 1, int32max + 1, -int32max - 1,
		-(1 << 40) + 7, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for i, seed := range seeds {
		// Sensor level: unit noise, no quantization, no lag, so each
		// reading is 10 plus one raw NormFloat64.
		s := NewSensorV(0, 1.0, 0, seed, NoiseVersionLegacy)
		ref := rand.New(rand.NewSource(seed))
		s.Advance(10, 0.05)
		for d := 0; d < draws; d++ {
			if got, want := s.Sample(), 10+ref.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: legacy sensor %v, raw math/rand %v", seed, d, got, want)
			}
		}
		// Reseed after draws restores the exact just-constructed stream
		// for the new seed.
		next := seeds[(i+1)%len(seeds)]
		s.Reseed(next)
		ref = rand.New(rand.NewSource(next))
		s.Advance(10, 0.05)
		for d := 0; d < draws; d++ {
			if got, want := s.Sample(), 10+ref.NormFloat64(); got != want {
				t.Fatalf("seed %d reseeded to %d, draw %d: %v != %v", seed, next, d, got, want)
			}
		}

		// Source level: raw 64-bit words, which NormFloat64 only sees
		// the top bits of.
		src := newLegacySource(seed)
		refSrc := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < draws; d++ {
			if got, want := src.Uint64(), refSrc.Uint64(); got != want {
				t.Fatalf("seed %d word %d: %#x, math/rand %#x", seed, d, got, want)
			}
		}
		src.Seed(next)
		refSrc.Seed(next)
		for d := 0; d < draws; d++ {
			if got, want := src.Int63(), refSrc.Int63(); got != want {
				t.Fatalf("seed %d reseeded to %d, word %d: %#x, math/rand %#x", seed, next, d, got, want)
			}
		}
	}

	// A spread of arbitrary seeds through one reused source, the way the
	// phone pool reseeds.
	gen := rand.New(rand.NewSource(1))
	src := newLegacySource(0)
	for n := 0; n < 1000; n++ {
		seed := int64(gen.Uint64())
		src.Seed(seed)
		refSrc := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < 2*legacyLen; d++ {
			if got, want := src.Uint64(), refSrc.Uint64(); got != want {
				t.Fatalf("seed %d word %d: %#x, math/rand %#x", seed, d, got, want)
			}
		}
	}
}

// TestCounterStreamDeterministic pins the counter stream identity: equal
// seeds give equal sequences, Seed is a full restart, and distinct seeds
// decorrelate.
func TestCounterStreamDeterministic(t *testing.T) {
	a, b := NewCounterStream(7), NewCounterStream(7)
	seq := make([]float64, 64)
	for i := range seq {
		seq[i] = a.NormFloat64()
		if got := b.NormFloat64(); got != seq[i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, got, seq[i])
		}
	}
	a.Seed(7)
	for i := range seq {
		if got := a.NormFloat64(); got != seq[i] {
			t.Fatalf("post-Seed draw %d: %v, want %v", i, got, seq[i])
		}
	}
	c := NewCounterStream(8)
	same := 0
	for i := range seq {
		if c.NormFloat64() == seq[i] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("seed 8 repeated %d draws of seed 7", same)
	}
}

// TestCounterStreamSeek pins position seeking at both spare parities —
// the property replay/checkpointing builds on.
func TestCounterStreamSeek(t *testing.T) {
	s := NewCounterStream(99)
	var draws []float64
	var poss []uint64
	for i := 0; i < 21; i++ {
		poss = append(poss, s.Pos())
		draws = append(draws, s.NormFloat64())
	}
	for i, pos := range poss {
		r := NewCounterStream(99)
		r.Seek(pos)
		for j := i; j < len(draws); j++ {
			if got := r.NormFloat64(); got != draws[j] {
				t.Fatalf("seek to pos[%d]=%d: draw %d = %v, want %v", i, pos, j, got, draws[j])
			}
		}
	}
}

// TestCounterStreamMoments sanity-checks the Box-Muller output: mean ~0,
// variance ~1, all values finite.
func TestCounterStreamMoments(t *testing.T) {
	s := NewCounterStream(3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("draw %d not finite: %v", i, v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.02 {
		t.Fatalf("mean %v variance %v, want ~0 / ~1", mean, variance)
	}
}

// TestCounterSensorDeterministic pins the versioned constructor: two
// NoiseVersionCounter sensors with one seed agree sample for sample, and
// Reseed restarts the stream exactly.
func TestCounterSensorDeterministic(t *testing.T) {
	mk := func() *Sensor { return BuiltinTempSensorV(11, NoiseVersionCounter) }
	a, b := mk(), mk()
	a.Advance(35, 0.05)
	b.Advance(35, 0.05)
	var first []float64
	for i := 0; i < 20; i++ {
		v := a.Sample()
		if w := b.Sample(); w != v {
			t.Fatalf("sample %d diverged: %v vs %v", i, v, w)
		}
		first = append(first, v)
	}
	a.Reseed(11)
	a.Advance(35, 0.05)
	for i := 0; i < 20; i++ {
		if got := a.Sample(); got != first[i] {
			t.Fatalf("post-Reseed sample %d: %v, want %v", i, got, first[i])
		}
	}
}

// TestObserveHeldMatchesObserve pins the event engine's logger contract:
// feeding non-emitting ticks through ObserveHeld and emitting ticks
// through Observe produces records bit-identical to feeding every tick
// through Observe.
func TestObserveHeldMatchesObserve(t *testing.T) {
	const dt = 0.05
	mkSensors := func() (cpu, bat, skin, screen *Sensor) {
		return BuiltinTempSensorV(1, NoiseVersionLegacy), BuiltinTempSensorV(2, NoiseVersionLegacy), ThermistorV(3, NoiseVersionLegacy), ThermistorV(4, NoiseVersionLegacy)
	}
	temp := func(k int) float64 { return 30 + 0.01*float64(k) }

	oracle := NewLogger(1.0)
	oc, ob, os, osc := mkSensors()
	held := NewLogger(1.0)
	hc, hb, hs, hsc := mkSensors()

	for k := 1; k <= 200; k++ {
		tm := float64(k) * dt
		util := 0.5 + 0.001*float64(k%7)
		freq := 1000 + float64(k%5)
		tc := temp(k)
		oc.Advance(tc, dt)
		ob.Advance(tc+1, dt)
		os.Advance(tc+2, dt)
		osc.Advance(tc+3, dt)
		oracle.Observe(tm, util, freq, oc, ob, os, osc)

		hc.Advance(tc, dt)
		hb.Advance(tc+1, dt)
		hs.Advance(tc+2, dt)
		hsc.Advance(tc+3, dt)
		if held.WouldEmit(tm) || !heldStarted(held) {
			held.Observe(tm, util, freq, hc, hb, hs, hsc)
		} else {
			held.ObserveHeld(tm, util, freq)
		}
	}
	or, hr := oracle.Records(), held.Records()
	if len(or) == 0 || len(or) != len(hr) {
		t.Fatalf("record counts: oracle %d, held %d", len(or), len(hr))
	}
	for i := range or {
		if or[i] != hr[i] {
			t.Fatalf("record %d diverged:\noracle %+v\nheld   %+v", i, or[i], hr[i])
		}
	}
}

// heldStarted mirrors the engine's "first tick is canonical" rule: before
// the logger has started, route through Observe so the window opens the
// same way. (ObserveHeld opens it identically; this just keeps the test's
// routing faithful to the engine.)
func heldStarted(l *Logger) bool { return l.started }

// TestSensorAlphaAccessors pins the externally-integrated-lag contract:
// Alpha returns the exact coefficient Advance uses, and
// LagState/SetLagState round-trip the recurrence.
func TestSensorAlphaAccessors(t *testing.T) {
	const dt = 0.05
	s := BuiltinTempSensorV(5, NoiseVersionLegacy)
	s.Advance(30, dt) // primes: state = 30
	alpha := s.Alpha(dt)
	if want := 1 - math.Exp(-dt/s.LagTau); alpha != want {
		t.Fatalf("Alpha(%v) = %v, want %v", dt, alpha, want)
	}
	ref := BuiltinTempSensorV(5, NoiseVersionLegacy)
	ref.Advance(30, dt)
	ext := s.LagState()
	for k := 0; k < 40; k++ {
		tc := 31 + 0.1*float64(k)
		ref.Advance(tc, dt)
		ext += alpha * (tc - ext)
	}
	s.SetLagState(ext)
	if got, want := s.LagState(), ref.LagState(); got != want {
		t.Fatalf("external recurrence %v != Advance %v", got, want)
	}
	// Degenerate lags report alpha 1 (state tracks input exactly).
	d := NewSensorV(0, 0, 0, 1, NoiseVersionLegacy)
	if got := d.Alpha(dt); got != 1 {
		t.Fatalf("degenerate Alpha = %v, want 1", got)
	}
}

// Pos returns the stream position (counter words consumed, shifted for
// compatibility with the historical spare-flag encoding) so that
// Seek(Pos()) is an exact resume point.
func (c *CounterStream) Pos() uint64 {
	return c.ctr << 1
}

// Seek repositions the stream to a position previously obtained from Pos
// on a stream with the same seed.
func (c *CounterStream) Seek(pos uint64) {
	c.ctr = pos >> 1
}
