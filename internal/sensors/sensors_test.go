package sensors

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSensorPrimesOnFirstRead(t *testing.T) {
	s := NewSensorV(0, 0, 10, 1, NoiseVersionLegacy)
	if got := s.Read(40, 0.1); got != 40 {
		t.Fatalf("first read = %v want 40 (primed)", got)
	}
}

func TestSensorLagApproachesTrueValue(t *testing.T) {
	s := NewSensorV(0, 0, 2.0, 1, NoiseVersionLegacy)
	s.Read(20, 0.1) // prime at 20
	var v float64
	for i := 0; i < 100; i++ { // 10 s at dt=0.1 with tau=2
		v = s.Read(40, 0.1)
	}
	if math.Abs(v-40) > 0.5 {
		t.Fatalf("after 5 tau reading = %v want ≈40", v)
	}
}

func TestSensorLagIsFirstOrder(t *testing.T) {
	s := NewSensorV(0, 0, 2.0, 1, NoiseVersionLegacy)
	s.Read(0, 0.1) // prime at 0
	var v float64
	for i := 0; i < 20; i++ { // exactly one tau (2 s)
		v = s.Read(10, 0.1)
	}
	want := 10 * (1 - math.Exp(-1))
	if math.Abs(v-want) > 0.1 {
		t.Fatalf("after one tau = %v want %v", v, want)
	}
}

func TestSensorQuantization(t *testing.T) {
	s := NewSensorV(0.1, 0, 0, 1, NoiseVersionLegacy)
	got := s.Read(36.34999, 1)
	if math.Abs(got-36.3) > 1e-9 {
		t.Fatalf("quantized read = %v want 36.3", got)
	}
	got = s.Read(36.35001, 1)
	if math.Abs(got-36.4) > 1e-9 {
		t.Fatalf("quantized read = %v want 36.4", got)
	}
}

func TestSensorNoiseIsDeterministicPerSeed(t *testing.T) {
	a := NewSensorV(0, 0.2, 0, 42, NoiseVersionLegacy)
	b := NewSensorV(0, 0.2, 0, 42, NoiseVersionLegacy)
	for i := 0; i < 10; i++ {
		if a.Read(30, 1) != b.Read(30, 1) {
			t.Fatal("same-seed sensors diverged")
		}
	}
	c := NewSensorV(0, 0.2, 0, 43, NoiseVersionLegacy)
	diff := false
	for i := 0; i < 10; i++ {
		if a.Read(30, 1) != c.Read(30, 1) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestSensorNoiseStatistics(t *testing.T) {
	s := NewSensorV(0, 0.15, 0, 7, NoiseVersionLegacy)
	var sum, sumSq float64
	n := 20000
	for i := 0; i < n; i++ {
		v := s.Read(35, 1) - 35
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("noise mean = %v want ≈0", mean)
	}
	if math.Abs(std-0.15) > 0.01 {
		t.Fatalf("noise std = %v want ≈0.15", std)
	}
}

func TestSensorReset(t *testing.T) {
	s := NewSensorV(0, 0, 5, 1, NoiseVersionLegacy)
	s.Read(10, 1)
	s.Read(50, 1) // lagging well below 50
	s.Reset()
	if got := s.Read(50, 1); got != 50 {
		t.Fatalf("after Reset first read = %v want 50", got)
	}
}

func TestBuiltinAndThermistorPresets(t *testing.T) {
	b := BuiltinTempSensorV(1, NoiseVersionLegacy)
	th := ThermistorV(2, NoiseVersionLegacy)
	if b.QuantC <= th.QuantC {
		t.Fatal("builtin sensor should be coarser than a thermistor")
	}
	if b.NoiseStd <= th.NoiseStd {
		t.Fatal("builtin sensor should be noisier than a thermistor")
	}
}

func TestRecordFeatures(t *testing.T) {
	r := Record{CPUTempC: 55, BatteryTempC: 33, Util: 0.7, FreqMHz: 1134}
	f := r.Features()
	want := []float64{55, 33, 0.7, 1134}
	if len(f) != len(FeatureNames) {
		t.Fatalf("feature count %d != name count %d", len(f), len(FeatureNames))
	}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("feature[%d] = %v want %v", i, f[i], want[i])
		}
	}
}

// fixedSensor returns an ideal sensor pinned at v, for logger tests.
func fixedSensor(v float64) *Sensor {
	s := NewSensorV(0, 0, 0, 1, NoiseVersionLegacy)
	s.Advance(v, 1)
	return s
}

func TestLoggerEmitsAtPeriod(t *testing.T) {
	l := NewLogger(1.0)
	cpu, bat, skin, screen := fixedSensor(50), fixedSensor(32), fixedSensor(38), fixedSensor(36)
	dt := 0.1
	for i := 0; i <= 50; i++ {
		tt := float64(i) * dt
		l.Observe(tt, 0.5, 1000, cpu, bat, skin, screen)
	}
	recs := l.Records()
	if len(recs) < 4 || len(recs) > 6 {
		t.Fatalf("5 s at 1 Hz logging should yield ~5 records, got %d", len(recs))
	}
	if recs[0].CPUTempC != 50 || recs[0].ScreenTempC != 36 {
		t.Fatalf("record did not sample the sensors: %+v", recs[0])
	}
}

func TestLoggerRetainLatestOnly(t *testing.T) {
	l := NewLogger(1.0)
	l.SetRetainLatestOnly(true)
	cpu, bat, skin, screen := fixedSensor(50), fixedSensor(32), fixedSensor(38), fixedSensor(36)
	for i := 0; i <= 100; i++ {
		l.Observe(float64(i)*0.1, 0.5, 1000, cpu, bat, skin, screen)
	}
	if got := len(l.Records()); got != 1 {
		t.Fatalf("retain-latest logger kept %d records, want 1", got)
	}
	rec, ok := l.Latest()
	if !ok || rec.TimeSec < 9 {
		t.Fatalf("Latest should be the final window, got %+v ok=%v", rec, ok)
	}
}

func TestLoggerAveragesWindow(t *testing.T) {
	l := NewLogger(1.0)
	cpu, bat, skin, screen := fixedSensor(50), fixedSensor(32), fixedSensor(38), fixedSensor(36)
	// Ten samples of alternating utilization 0.2/0.8 average to 0.5.
	for i := 0; i <= 10; i++ {
		u := 0.2
		if i%2 == 1 {
			u = 0.8
		}
		l.Observe(float64(i)*0.1, u, 1000, cpu, bat, skin, screen)
	}
	rec, ok := l.Latest()
	if !ok {
		t.Fatal("no record emitted")
	}
	if math.Abs(rec.Util-0.5) > 0.06 {
		t.Fatalf("window-averaged util = %v want ≈0.5", rec.Util)
	}
}

func TestLoggerLatestEmpty(t *testing.T) {
	l := NewLogger(1.0)
	if _, ok := l.Latest(); ok {
		t.Fatal("Latest on empty logger must report false")
	}
}

func TestLoggerReset(t *testing.T) {
	l := NewLogger(1.0)
	cpu, bat, skin, screen := fixedSensor(50), fixedSensor(32), fixedSensor(38), fixedSensor(36)
	for i := 0; i <= 20; i++ {
		l.Observe(float64(i)*0.1, 0.5, 1000, cpu, bat, skin, screen)
	}
	l.Reset()
	if len(l.Records()) != 0 {
		t.Fatal("Reset did not clear records")
	}
}

func TestLoggerDefaultPeriod(t *testing.T) {
	l := NewLogger(0)
	if l.PeriodSec != 1 {
		t.Fatalf("default period = %v want 1", l.PeriodSec)
	}
}

// Property: a noiseless, unquantized, lag-free sensor is the identity.
func TestIdentitySensorProperty(t *testing.T) {
	s := NewSensorV(0, 0, 0, 1, NoiseVersionLegacy)
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return s.Read(v, 1) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantized readings are always integer multiples of the step.
func TestQuantizationGridProperty(t *testing.T) {
	s := NewSensorV(0.1, 0, 0, 1, NoiseVersionLegacy)
	f := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 100)
		got := s.Read(v, 1)
		_, frac := math.Modf(math.Abs(got) / 0.1)
		return frac < 1e-6 || frac > 1-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRetainLatestTrimsExistingHistory(t *testing.T) {
	l := NewLogger(1.0)
	cpu, bat, skin, screen := fixedSensor(50), fixedSensor(32), fixedSensor(38), fixedSensor(36)
	for i := 0; i <= 50; i++ {
		l.Observe(float64(i)*0.1, 0.5, 1000, cpu, bat, skin, screen)
	}
	if len(l.Records()) < 2 {
		t.Fatal("setup: expected history")
	}
	last, _ := l.Latest()
	l.SetRetainLatestOnly(true)
	if got := len(l.Records()); got != 1 {
		t.Fatalf("enable did not trim history: %d records", got)
	}
	if rec, _ := l.Latest(); rec != last {
		t.Fatalf("trim kept %+v, want the latest record %+v", rec, last)
	}
	// New windows must keep flowing into Latest after the toggle.
	for i := 51; i <= 80; i++ {
		l.Observe(float64(i)*0.1, 0.9, 1500, cpu, bat, skin, screen)
	}
	rec, _ := l.Latest()
	if rec.TimeSec <= last.TimeSec || len(l.Records()) != 1 {
		t.Fatalf("Latest frozen after toggle: %+v", rec)
	}
}

// Read advances the sensor by dt seconds with the physical temperature
// trueC and returns the measured value (Advance + Sample).
func (s *Sensor) Read(trueC, dt float64) float64 {
	s.Advance(trueC, dt)
	return s.Sample()
}
