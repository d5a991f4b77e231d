// Package sensors models the measurement chain of the instrumented phone:
// the built-in CPU and battery temperature sensors the predictor reads at
// run time, the external thermistors that supplied ground-truth skin and
// screen temperatures during training, and the periodic logging application
// that assembles the paper's feature tuple {CPU temperature, battery
// temperature, CPU utilization, CPU frequency}.
//
// Real packaged sensors differ from the physical node temperature in three
// ways that matter to the learned predictor: first-order thermal lag,
// additive noise, and ADC quantization. All three are modelled and seeded.
package sensors

import (
	"math"
	"math/rand"
)

// Stream is the Gaussian noise source behind a Sensor. Two
// implementations exist: a *math/rand.Rand over legacySource
// (NoiseVersionLegacy — math/rand's seeded stream, draw for draw, which
// every committed golden was recorded against; a reseed costs a
// 607-word register fill, about 3 µs) and the counter-based
// CounterStream (NoiseVersionCounter — O(1) seeding and position seeking,
// the stream replay/checkpointing and the event engine version against).
// Both are deterministic functions of their seed.
type Stream interface {
	NormFloat64() float64
	Seed(seed int64)
}

// Noise stream versions for the versioned constructors. The version is
// part of an experiment's reproducibility contract: changing it changes
// every sampled reading, so it is carried explicitly (device.Config)
// rather than flipped globally.
const (
	// NoiseVersionLegacy is math/rand's seeded stream — bit-compatible
	// with every result recorded before versioning existed.
	NoiseVersionLegacy = 0
	// NoiseVersionCounter is the splitmix64 counter stream.
	NoiseVersionCounter = 1
)

// Sensor converts a physical node temperature into a measured reading.
type Sensor struct {
	// QuantC is the quantization step in °C (0 disables quantization).
	QuantC float64
	// NoiseStd is the standard deviation of additive Gaussian noise in °C.
	NoiseStd float64
	// LagTau is the first-order lag time constant in seconds (0 = no lag).
	LagTau float64

	rng    Stream
	state  float64
	primed bool

	// alphaDt/alpha cache the lag coefficient 1−e^(−dt/τ) for the last dt,
	// so fixed-step simulations do not pay a math.Exp per tick.
	alphaDt float64
	alpha   float64
}

// NewSensorV creates a sensor with the given quantization, noise, and lag,
// drawing noise from the stream the given version selects, seeded by seed.
func NewSensorV(quantC, noiseStd, lagTau float64, seed int64, version int) *Sensor {
	// alphaDt = -1 guarantees the cached-coefficient fast path can only
	// match real (positive) step sizes.
	return &Sensor{QuantC: quantC, NoiseStd: noiseStd, LagTau: lagTau, alphaDt: -1, rng: newStream(seed, version)}
}

// newStream builds the noise stream for a version; unknown versions take
// the newest stream (forward compatibility for configs written later).
func newStream(seed int64, version int) Stream {
	if version == NoiseVersionLegacy {
		return rand.New(newLegacySource(seed))
	}
	return NewCounterStream(seed)
}

// BuiltinTempSensorV returns the model of an on-SoC/battery temperature
// sensor: 0.1 °C quantization, mild noise, ~2 s lag, with the given noise
// version.
func BuiltinTempSensorV(seed int64, version int) *Sensor {
	return NewSensorV(0.1, 0.15, 2.0, seed, version)
}

// ThermistorV returns the model of an attached external thermistor used
// to collect training labels: fine quantization, low noise, ~1 s lag from
// the adhesive pad, with the given noise version.
func ThermistorV(seed int64, version int) *Sensor {
	return NewSensorV(0.02, 0.05, 1.0, seed, version)
}

// Advance propagates the first-order lag by dt seconds with the physical
// temperature trueC. No measurement is taken — pair with Sample, which
// models the ADC conversion. Splitting the two matches the real chain (the
// package lags continuously; the logging app converts once per log line)
// and keeps the per-simulation-tick cost to one multiply-add.
func (s *Sensor) Advance(trueC, dt float64) {
	if s.primed && dt == s.alphaDt {
		// Fast path for fixed-step callers: the coefficient is cached and
		// this body is small enough to inline into the simulation tick.
		s.state += s.alpha * (trueC - s.state)
		return
	}
	s.advanceSlow(trueC, dt)
}

// advanceSlow handles priming, degenerate lags, and dt changes.
func (s *Sensor) advanceSlow(trueC, dt float64) {
	if !s.primed {
		s.state = trueC
		s.primed = true
		// Prime the coefficient cache so the next call takes the fast path.
		if s.LagTau > 0 && dt > 0 {
			s.alphaDt = dt
			s.alpha = 1 - math.Exp(-dt/s.LagTau)
		}
		return
	}
	if s.LagTau <= 0 || dt <= 0 {
		// Degenerate lag or step: the reading tracks the input exactly. The
		// cache is left untouched (it only ever holds positive steps).
		s.state = trueC
		return
	}
	s.alphaDt = dt
	s.alpha = 1 - math.Exp(-dt/s.LagTau)
	s.state += s.alpha * (trueC - s.state)
}

// Sample converts the current lagged temperature into a measured value:
// additive Gaussian noise, then ADC quantization.
func (s *Sensor) Sample() float64 {
	v := s.state
	if s.NoiseStd > 0 {
		v += s.rng.NormFloat64() * s.NoiseStd
	}
	if s.QuantC > 0 {
		v = math.Round(v/s.QuantC) * s.QuantC
	}
	return v
}

// Reset clears the lag state so the next Advance primes from the physical
// temperature.
func (s *Sensor) Reset() { s.primed = false }

// Reseed restores the sensor to its just-constructed state under a new
// noise seed: lag state and coefficient cache cleared, RNG reseeded. A
// reseeded sensor produces the exact reading stream a NewSensorV with the
// same parameters and seed would — device.Phone.Reset (the fleet's phone
// pool) relies on that.
func (s *Sensor) Reseed(seed int64) {
	s.rng.Seed(seed)
	s.primed = false
	s.state = 0
	s.alphaDt = -1
	s.alpha = 0
}

// Alpha returns the lag coefficient 1−e^(−dt/τ) the sensor applies per
// Advance at step dt (1 for degenerate lags or steps, where the reading
// tracks the input exactly). It uses — and primes — the same coefficient
// cache as Advance, so the value is bitwise the one Advance multiplies by.
func (s *Sensor) Alpha(dt float64) float64 {
	if s.LagTau <= 0 || dt <= 0 {
		return 1
	}
	if dt != s.alphaDt {
		s.alphaDt = dt
		s.alpha = 1 - math.Exp(-dt/s.LagTau)
	}
	return s.alpha
}

// LagState returns the current lagged temperature (the value Sample adds
// noise to). Only meaningful once primed.
func (s *Sensor) LagState() float64 { return s.state }

// SetLagState overwrites the lagged temperature — the write-back half of
// an externally integrated lag (the event engine folds the lag recurrence
// into its jump matrix and stores the result here).
func (s *Sensor) SetLagState(v float64) { s.state = v }

// Record is one line of the logging application: the observables available
// on a stock phone plus, during training runs, the thermistor ground truth.
type Record struct {
	TimeSec float64
	// On-device observables (model features).
	CPUTempC     float64
	BatteryTempC float64
	Util         float64 // average utilization over the logging window
	FreqMHz      float64 // average frequency over the logging window
	// Thermistor ground truth (model labels; NaN when thermistors absent).
	SkinTempC   float64
	ScreenTempC float64
}

// Features returns the paper's feature vector in canonical order:
// CPU temperature, battery temperature, utilization, frequency.
func (r Record) Features() []float64 {
	return []float64{r.CPUTempC, r.BatteryTempC, r.Util, r.FreqMHz}
}

// FeatureNames lists the canonical feature order used across the
// reproduction.
var FeatureNames = []string{"cpu_temp_c", "battery_temp_c", "cpu_util", "cpu_freq_mhz"}

// Logger accumulates Records at a fixed period, averaging utilization and
// frequency over each window the way the paper's logging app does.
type Logger struct {
	// PeriodSec is the logging period (the paper logs every second).
	PeriodSec float64

	records []Record

	winStart     float64
	utilSum      float64
	freqSum      float64
	winSamples   int
	started      bool
	retainLatest bool
}

// NewLogger creates a logger with the given period in seconds.
func NewLogger(periodSec float64) *Logger {
	if periodSec <= 0 {
		periodSec = 1
	}
	return &Logger{PeriodSec: periodSec}
}

// SetRetainLatestOnly switches the logger to keep only the most recent
// record instead of the full history. LatestRecord consumers (the run-time
// predictor) are unaffected; Records returns at most one entry — any
// history already accumulated is trimmed to its latest record on enable.
// Intended for trace-free fleet runs where per-second history would
// dominate memory.
func (l *Logger) SetRetainLatestOnly(on bool) {
	l.retainLatest = on
	if on && len(l.records) > 1 {
		l.records[0] = l.records[len(l.records)-1]
		l.records = l.records[:1]
	}
}

// Observe feeds one simulation step into the logger. util and freqMHz are
// accumulated; when a logging window closes, a Record is emitted by
// sampling the four attached sensors — the ADC conversion (noise +
// quantization) happens once per log line, exactly like the real logging
// app, so ticks inside a window cost only the accumulation.
func (l *Logger) Observe(t, util, freqMHz float64, cpu, bat, skin, screen *Sensor) {
	if !l.started {
		l.started = true
		l.winStart = t
	}
	l.utilSum += util
	l.freqSum += freqMHz
	l.winSamples++
	if t-l.winStart+1e-9 >= l.PeriodSec {
		rec := Record{
			TimeSec:      t,
			CPUTempC:     cpu.Sample(),
			BatteryTempC: bat.Sample(),
			Util:         l.utilSum / float64(l.winSamples),
			FreqMHz:      l.freqSum / float64(l.winSamples),
			SkinTempC:    skin.Sample(),
			ScreenTempC:  screen.Sample(),
		}
		if n := len(l.records); l.retainLatest && n > 0 {
			l.records[n-1] = rec // invariant: n == 1 while retaining latest
		} else {
			l.records = append(l.records, rec)
		}
		l.winStart = t
		l.utilSum, l.freqSum, l.winSamples = 0, 0, 0
	}
}

// ObserveHeld accumulates one simulation step into the current logging
// window without the emission check. The event engine replays folded
// (held-input) ticks through it — one float add per accumulator, the
// identical adds Observe performs — and routes every tick that WouldEmit
// through the full Observe, so window sums, sample counts and therefore
// the averages in every emitted Record stay bit-identical to a tick-by-
// tick run.
func (l *Logger) ObserveHeld(t, util, freqMHz float64) {
	if !l.started {
		l.started = true
		l.winStart = t
	}
	l.utilSum += util
	l.freqSum += freqMHz
	l.winSamples++
}

// WouldEmit reports whether an Observe at time t would close the current
// logging window and emit a Record. Emission samples the attached sensors
// (consuming noise-stream draws), so the event engine routes such ticks
// through its close-out path: it asks WouldEmit before folding a tick
// into the interior of a held segment.
func (l *Logger) WouldEmit(t float64) bool {
	return l.started && t-l.winStart+1e-9 >= l.PeriodSec
}

// EmitHeld closes the current logging window at time t when due, emitting
// a Record exactly as Observe's emission branch would — same sensor
// sampling order (same noise-stream draws), same averages from the
// accumulated sums. The event engine pairs it with ObserveHeld: folded
// ticks accumulate, the segment's physics jump advances the sensor lags,
// and the close-out tick emits from the jumped state. A no-op when the
// window is still open.
func (l *Logger) EmitHeld(t float64, cpu, bat, skin, screen *Sensor) {
	if !l.started || t-l.winStart+1e-9 < l.PeriodSec {
		return
	}
	rec := Record{
		TimeSec:      t,
		CPUTempC:     cpu.Sample(),
		BatteryTempC: bat.Sample(),
		Util:         l.utilSum / float64(l.winSamples),
		FreqMHz:      l.freqSum / float64(l.winSamples),
		SkinTempC:    skin.Sample(),
		ScreenTempC:  screen.Sample(),
	}
	if n := len(l.records); l.retainLatest && n > 0 {
		l.records[n-1] = rec // invariant: n == 1 while retaining latest
	} else {
		l.records = append(l.records, rec)
	}
	l.winStart = t
	l.utilSum, l.freqSum, l.winSamples = 0, 0, 0
}

// Records returns the accumulated log.
func (l *Logger) Records() []Record { return l.records }

// Latest returns the most recent record and whether one exists.
func (l *Logger) Latest() (Record, bool) {
	if len(l.records) == 0 {
		return Record{}, false
	}
	return l.records[len(l.records)-1], true
}

// Reset clears the log and windowing state.
func (l *Logger) Reset() {
	l.records = nil
	l.started = false
	l.utilSum, l.freqSum, l.winSamples = 0, 0, 0
}
