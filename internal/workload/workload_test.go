package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProgramDuration(t *testing.T) {
	p := New("x", 1,
		Phase{Name: "a", Dur: 10, CPU: 0.5},
		Phase{Name: "b", Dur: 20, CPU: 0.1},
	)
	if p.Duration() != 30 {
		t.Fatalf("Duration = %v want 30", p.Duration())
	}
	if p.Name() != "x" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestProgramPhaseLookup(t *testing.T) {
	p := New("x", 1,
		Phase{Name: "a", Dur: 10, CPU: 0.5},
		Phase{Name: "b", Dur: 20, CPU: 0.1},
		Phase{Name: "c", Dur: 5, CPU: 0.9},
	)
	cases := []struct {
		t    float64
		want string
	}{
		{0, "a"}, {9.99, "a"}, {10, "b"}, {29.99, "b"}, {30, "c"}, {34.9, "c"}, {35, ""}, {-1, ""},
	}
	for _, tc := range cases {
		if got := p.PhaseAt(tc.t); got != tc.want {
			t.Fatalf("PhaseAt(%v) = %q want %q", tc.t, got, tc.want)
		}
	}
}

func TestProgramOutsideDurationIsIdle(t *testing.T) {
	p := New("x", 1, Phase{Name: "a", Dur: 10, CPU: 0.5, GPU: 0.5, Aux: 1, Display: 1, Touch: true})
	for _, tt := range []float64{-0.5, 10, 100} {
		s := p.At(tt)
		if s != (Sample{}) {
			t.Fatalf("At(%v) = %+v want zero sample", tt, s)
		}
	}
}

func TestProgramDeterminism(t *testing.T) {
	a := Skype(42)
	b := Skype(42)
	for tt := 0.0; tt < a.Duration(); tt += 37.3 {
		if a.At(tt) != b.At(tt) {
			t.Fatalf("same-seed programs diverge at t=%v", tt)
		}
	}
}

func TestProgramSeedChangesJitter(t *testing.T) {
	a := Skype(1)
	b := Skype(2)
	diff := 0
	for tt := 0.5; tt < 600; tt += 1 {
		if a.At(tt).CPUFrac != b.At(tt).CPUFrac {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestBurstPattern(t *testing.T) {
	p := New("b", 0, Phase{Name: "burst", Dur: 100, BurstPeriod: 10, BurstDuty: 0.3, BurstHigh: 0.9, BurstLow: 0.1})
	if got := p.At(1).CPUFrac; got != 0.9 {
		t.Fatalf("burst high = %v want 0.9", got)
	}
	if got := p.At(5).CPUFrac; got != 0.1 {
		t.Fatalf("burst low = %v want 0.1", got)
	}
	// Second period behaves identically.
	if got := p.At(11).CPUFrac; got != 0.9 {
		t.Fatalf("second period high = %v want 0.9", got)
	}
}

func TestJitterBounds(t *testing.T) {
	p := New("j", 7, Phase{Name: "a", Dur: 1000, CPU: 0.5, CPUJitter: 0.1, GPU: 0.5, GPUJitter: 0.2})
	for tt := 0.0; tt < 1000; tt += 0.7 {
		s := p.At(tt)
		if s.CPUFrac < 0.4-1e-9 || s.CPUFrac > 0.6+1e-9 {
			t.Fatalf("CPU jitter out of bounds at t=%v: %v", tt, s.CPUFrac)
		}
		if s.GPULoad < 0.3-1e-9 || s.GPULoad > 0.7+1e-9 {
			t.Fatalf("GPU jitter out of bounds at t=%v: %v", tt, s.GPULoad)
		}
	}
}

func TestNegativeDemandClamped(t *testing.T) {
	p := New("n", 3, Phase{Name: "a", Dur: 100, CPU: 0.01, CPUJitter: 0.5, GPU: 0.01, GPUJitter: 0.5})
	for tt := 0.0; tt < 100; tt += 0.5 {
		s := p.At(tt)
		if s.CPUFrac < 0 || s.GPULoad < 0 || s.GPULoad > 1 {
			t.Fatalf("demand out of range at t=%v: %+v", tt, s)
		}
	}
}

func TestRepeat(t *testing.T) {
	p := New("r", 1, Phase{Name: "a", Dur: 10, CPU: 0.7})
	r := p.Repeat(3)
	if r.Duration() != 30 {
		t.Fatalf("Repeat duration = %v want 30", r.Duration())
	}
	if r.At(25).CPUFrac == 0 {
		t.Fatal("repeated phase should be active at t=25")
	}
}

func TestRepeatPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("r", 1, Phase{Name: "a", Dur: 1, CPU: 0.5}).Repeat(0)
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("empty", 1)
}

func TestNewPanicsOnNonPositiveDur(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 1, Phase{Name: "a", Dur: 0})
}

func TestTruncated(t *testing.T) {
	p := Skype(1)
	tr := Truncated{W: p, Dur: 60}
	if tr.Duration() != 60 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if tr.At(30) != p.At(30) {
		t.Fatal("Truncated must pass through inside the window")
	}
	if tr.At(61) != (Sample{}) {
		t.Fatal("Truncated must be idle past its duration")
	}
	if tr.Name() != p.Name() {
		t.Fatal("Truncated must keep the name")
	}
}

func TestAllThirteenBenchmarksPresent(t *testing.T) {
	bs := Benchmarks(99)
	if len(bs) != 13 {
		t.Fatalf("Benchmarks returned %d workloads, want 13", len(bs))
	}
	if len(BenchmarkNames) != 13 {
		t.Fatalf("BenchmarkNames has %d entries, want 13", len(BenchmarkNames))
	}
	for i, b := range bs {
		if b.Name() != BenchmarkNames[i] {
			t.Fatalf("benchmark %d = %q want %q", i, b.Name(), BenchmarkNames[i])
		}
		if b.Duration() < 300 {
			t.Fatalf("%s is implausibly short: %v s", b.Name(), b.Duration())
		}
	}
}

func TestByName(t *testing.T) {
	const seed = 5
	all := Benchmarks(seed)
	if len(all) != len(BenchmarkNames) {
		t.Fatalf("Benchmarks built %d programs for %d names", len(all), len(BenchmarkNames))
	}
	for i, name := range BenchmarkNames {
		w := ByName(name, seed)
		if w == nil || w.Name() != name {
			t.Fatalf("ByName(%s) = %v", name, w)
		}
		want := all[i]
		if w.Name() != want.Name() || w.Duration() != want.Duration() {
			t.Fatalf("ByName(%s) = %s/%v s, Benchmarks[%d] = %s/%v s",
				name, w.Name(), w.Duration(), i, want.Name(), want.Duration())
		}
		// Sample for sample at the simulator's 50 ms tick: same profile,
		// same seed.
		for k := 0; float64(k)*0.05 < want.Duration(); k++ {
			tt := float64(k) * 0.05
			if got, exp := w.At(tt), want.At(tt); got != exp {
				t.Fatalf("ByName(%s).At(%v) = %+v, Benchmarks[%d].At = %+v", name, tt, got, i, exp)
			}
		}
	}
	if ByName("nope", seed) != nil {
		t.Fatal("ByName must return nil for unknown names")
	}
}

func TestBenchmarkThermalClasses(t *testing.T) {
	// Average total demand proxy (CPU + aux + GPU + charge) must respect the
	// paper's ordering: the hot workloads demand more sustained power than
	// the mild ones.
	avgPower := func(w Workload) float64 {
		var s float64
		n := 0
		for tt := 0.5; tt < w.Duration(); tt += 5 {
			sm := w.At(tt)
			s += sm.CPUFrac*3.2 + sm.GPULoad*1.3 + sm.AuxWatts + sm.ChargeWatts + sm.Display*0.55
			n++
		}
		return s / float64(n)
	}
	hot := []Workload{AnTuTuTester(1), Skype(2)}
	mild := []Workload{YouTube(3), Charging(4), AnTuTuUserExp(5)}
	for _, h := range hot {
		for _, m := range mild {
			if avgPower(h) <= avgPower(m) {
				t.Fatalf("%s (%.2f W proxy) should exceed %s (%.2f W proxy)",
					h.Name(), avgPower(h), m.Name(), avgPower(m))
			}
		}
	}
}

func TestSkypeIsHeldAndOnScreen(t *testing.T) {
	s := Skype(1).At(100)
	if !s.Touch {
		t.Fatal("Skype call must have Touch set (user holds the phone)")
	}
	if s.Display <= 0 {
		t.Fatal("Skype call must keep the display on")
	}
	if s.AuxWatts < 0.9 {
		t.Fatalf("Skype aux power = %v, want camera+radio dominated (≈1 W)", s.AuxWatts)
	}
}

func TestChargingIsScreenOffAndWarmsBattery(t *testing.T) {
	s := Charging(1).At(100)
	if s.Display != 0 {
		t.Fatal("Charging must keep the display off")
	}
	if s.ChargeWatts <= 0 {
		t.Fatal("Charging must dissipate heat in the battery")
	}
	if s.Touch {
		t.Fatal("Charging phone is on the desk, not in a hand")
	}
}

func TestStaircaseRampMonotone(t *testing.T) {
	p := StaircaseRamp(1, 0.1, 0.9, 9, 10)
	prev := -1.0
	for i := 0; i < 9; i++ {
		v := p.At(float64(i)*10 + 5).CPUFrac
		if v <= prev-0.05 {
			t.Fatalf("ramp not increasing at step %d: %v after %v", i, v, prev)
		}
		prev = v
	}
}

func TestStaircaseRampPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StaircaseRamp(1, 0, 1, 1, 10)
}

func TestRandomPhasesDeterministic(t *testing.T) {
	a := RandomPhases(5, 10, 30)
	b := RandomPhases(5, 10, 30)
	if a.Duration() != 300 {
		t.Fatalf("Duration = %v", a.Duration())
	}
	for tt := 0.0; tt < 300; tt += 7 {
		if a.At(tt) != b.At(tt) {
			t.Fatalf("RandomPhases not deterministic at t=%v", tt)
		}
	}
}

func TestRandomPhasesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomPhases(1, 0, 10)
}

func TestIdleWorkload(t *testing.T) {
	w := Idle(100)
	s := w.At(50)
	if s.CPUFrac > 0.05 || s.Display != 0 {
		t.Fatalf("idle sample = %+v", s)
	}
}

// Property: At is a pure function — calling it repeatedly in any order
// yields identical samples.
func TestAtPurityProperty(t *testing.T) {
	w := AnTuTuFull(123)
	f := func(rawT float64) bool {
		tt := math.Mod(math.Abs(rawT), w.Duration())
		first := w.At(tt)
		w.At(math.Mod(tt*7, w.Duration())) // interleave another query
		return w.At(tt) == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples are always physically sane.
func TestSampleSanityProperty(t *testing.T) {
	ws := Benchmarks(7)
	f := func(rawT float64, idx uint8) bool {
		w := ws[int(idx)%len(ws)]
		tt := math.Mod(math.Abs(rawT), w.Duration())
		s := w.At(tt)
		return s.CPUFrac >= 0 && s.GPULoad >= 0 && s.GPULoad <= 1 &&
			s.AuxWatts >= 0 && s.ChargeWatts >= 0 && s.Display >= 0 && s.Display <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorMatchesAt: the Cursored fast path must reproduce At exactly —
// over every built-in benchmark program, at tick granularity, including
// phase boundaries and jitter-slot edges.
func TestCursorMatchesAt(t *testing.T) {
	progs := append([]*Program{}, Benchmarks(7)...)
	progs = append(progs, Skype(77), New("edge", 3,
		Phase{Name: "burst", Dur: 2.5, BurstPeriod: 0.7, BurstDuty: 0.4, BurstHigh: 1.2, BurstLow: 0.1, CPUJitter: 0.2},
		Phase{Name: "calm", Dur: 1.5, CPU: 0.3, GPU: 0.5, GPUJitter: 0.3},
	))
	for _, p := range progs {
		at := SamplerOf(p)
		dur := p.Duration()
		for tm := -0.05; tm <= dur+1; tm += 0.05 {
			want := p.At(tm)
			if got := at(tm); got != want {
				t.Fatalf("%s: cursor(%v) = %+v, At = %+v", p.Name(), tm, got, want)
			}
		}
	}
}

// TestCursorHandlesBackwardTime: a cursor must survive time moving
// backwards (a caller restarting a run) by falling back to a fresh lookup.
func TestCursorHandlesBackwardTime(t *testing.T) {
	p := Skype(5)
	c := SamplerOf(p)
	mid := p.Duration() / 2
	if got, want := c(mid), p.At(mid); got != want {
		t.Fatalf("forward: %+v vs %+v", got, want)
	}
	if got, want := c(1.0), p.At(1.0); got != want {
		t.Fatalf("backward: %+v vs %+v", got, want)
	}
}

// TestTruncatedCursorClips: the truncating wrapper's cursor idles past the
// clip exactly like its At.
func TestTruncatedCursorClips(t *testing.T) {
	tr := Truncated{W: Skype(5), Dur: 10}
	c := SamplerOf(tr)
	if got := c(11); got != (Sample{}) {
		t.Fatalf("cursor past clip = %+v, want idle", got)
	}
	if got, want := c(9.5), tr.At(9.5); got != want {
		t.Fatalf("cursor(9.5) = %+v, want %+v", got, want)
	}
}

func TestDailyMixShape(t *testing.T) {
	w := DailyMix(1)
	if w.Name() != "daily-mix" {
		t.Fatalf("Name = %q", w.Name())
	}
	// The charging tail must be screen-off with charge heat.
	tail := w.At(w.Duration() - 100)
	if tail.ChargeWatts <= 0 || tail.Display != 0 {
		t.Fatalf("charging tail sample = %+v", tail)
	}
	// The call phase must be the warm middle stretch.
	call := w.At(2500)
	if call.AuxWatts < 0.5 || !call.Touch {
		t.Fatalf("call-phase sample = %+v", call)
	}
}

// PhaseAt returns the name of the phase active at time t, or "" outside the
// program.
func (p *Program) PhaseAt(t float64) string {
	if t < 0 || t >= p.total {
		return ""
	}
	for i := len(p.offsets) - 1; i >= 0; i-- {
		if p.offsets[i] <= t {
			return p.phases[i].Name
		}
	}
	return ""
}
