// Package fleet is the concurrency layer of the reproduction: Session wraps
// one simulated handset behind functional-options construction and
// context-aware execution, and Fleet fans many independent (user, workload,
// device, controller) jobs out across a worker pool with deterministic
// per-job seeding. The paper's evaluation pipeline (internal/experiments)
// and every cmd/ tool are consumers; nothing here knows about USTA
// specifically — controllers arrive through the device.Controller interface.
package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/sink"
	"repro/internal/workload"
)

// ambient bounds: the RC network is calibrated for habitable conditions;
// far outside them the fitted conductances stop meaning anything.
const (
	minAmbientC = -40
	maxAmbientC = 60
)

// sessionConfig accumulates option state before the phone is assembled.
type sessionConfig struct {
	device    device.Config
	gov       governor.Governor
	govName   string
	govSet    bool
	ctrl      device.Controller
	observer  func(device.Sample)
	sink      sink.Sink
	ambient   *float64
	seed      *int64
	traceFree bool
}

// Option configures a Session under construction. Options validate eagerly
// and return errors instead of panicking; NewSession reports the first
// failure.
type Option func(*sessionConfig) error

// WithDevice sets the handset configuration (default: device.DefaultConfig).
// The configuration itself is validated when the phone is assembled.
func WithDevice(cfg device.Config) Option {
	return func(sc *sessionConfig) error {
		sc.device = cfg
		return nil
	}
}

// WithGovernor installs a specific cpufreq governor instance. Mutually
// exclusive with WithGovernorName.
func WithGovernor(g governor.Governor) Option {
	return func(sc *sessionConfig) error {
		if g == nil {
			return errors.New("fleet: WithGovernor(nil)")
		}
		if sc.govSet {
			return errors.New("fleet: governor configured twice")
		}
		sc.gov = g
		sc.govSet = true
		return nil
	}
}

// WithGovernorName selects a governor by its sysfs name ("ondemand",
// "interactive", "conservative", "schedutil", "performance", "powersave"),
// resolved against the device's OPP table at construction time. Mutually
// exclusive with WithGovernor.
func WithGovernorName(name string) Option {
	return func(sc *sessionConfig) error {
		if sc.govSet {
			return errors.New("fleet: governor configured twice")
		}
		sc.govName = name
		sc.govSet = true
		return nil
	}
}

// WithController attaches a thermal controller (e.g. core.NewUSTA) to the
// session's phone.
func WithController(c device.Controller) Option {
	return func(sc *sessionConfig) error {
		if c == nil {
			return errors.New("fleet: WithController(nil)")
		}
		sc.ctrl = c
		return nil
	}
}

// WithAmbientC overrides the ambient temperature of the device's thermal
// environment.
func WithAmbientC(c float64) Option {
	return func(sc *sessionConfig) error {
		if c < minAmbientC || c > maxAmbientC {
			return fmt.Errorf("fleet: ambient %.1f °C outside the calibrated range [%g, %g]", c, float64(minAmbientC), float64(maxAmbientC))
		}
		sc.ambient = &c
		return nil
	}
}

// WithSeed overrides the device seed driving sensor noise.
func WithSeed(seed int64) Option {
	return func(sc *sessionConfig) error {
		sc.seed = &seed
		return nil
	}
}

// WithObserver installs a per-sample telemetry hook fired once per trace
// row during Run, so callers can stream live telemetry instead of waiting
// for the aggregate RunResult. This is the low-level escape hatch; prefer
// WithSink for anything that writes, buffers, or fans out.
//
// The observer is independent of trace retention: under WithTraceFree it
// still fires for every sample the trace would have recorded (one per
// RecordPeriodSec), so streaming consumers lose nothing when the in-memory
// Trace is turned off.
func WithObserver(fn func(device.Sample)) Option {
	return func(sc *sessionConfig) error {
		if fn == nil {
			return errors.New("fleet: WithObserver(nil)")
		}
		sc.observer = fn
		return nil
	}
}

// WithSink streams the session's telemetry into a sink (job tag 0).
// Composable with WithObserver: the observer fires first, then the sink.
// Like WithObserver, the sink receives every sample even under
// WithTraceFree. The session does not close the sink; the caller does.
func WithSink(s sink.Sink) Option {
	return func(sc *sessionConfig) error {
		if s == nil {
			return errors.New("fleet: WithSink(nil)")
		}
		if sc.sink != nil {
			return errors.New("fleet: sink configured twice")
		}
		sc.sink = s
		return nil
	}
}

// WithTraceFree runs the session trace-free: RunResult.Trace and
// RunResult.Records stay nil while all aggregates (peak temperatures,
// averages, energy, work) are computed exactly as in a traced run.
// WithObserver hooks and WithSink sinks still receive every sample, one
// per RecordPeriodSec — exactly the rows the trace would have held — so
// telemetry can be streamed instead of buffered. Use for long or many runs
// where the per-second history would dominate memory. Controllers that
// consume the full Records history (the recalibrating wrapper) need traced
// runs; see device.Phone.SetTraceFree.
func WithTraceFree() Option {
	return func(sc *sessionConfig) error {
		sc.traceFree = true
		return nil
	}
}

// Session is one simulated handset plus its run policy. Consecutive Run
// calls continue on the same phone: thermal state, battery charge and the
// controller's history carry over, exactly like back-to-back apps on a real
// device. Build a fresh Session for statistically independent runs.
type Session struct {
	phone *device.Phone
}

// NewSession assembles a simulated handset from the options. It never
// panics: invalid configurations (bad step sizes, unknown governor names,
// implausible ambients, nil hooks) are reported as errors.
func NewSession(opts ...Option) (*Session, error) {
	sc := sessionConfig{device: device.DefaultConfig()}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("fleet: nil Option")
		}
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	if sc.ambient != nil {
		sc.device.Thermal.Ambient = *sc.ambient
	}
	if sc.seed != nil {
		sc.device.Seed = *sc.seed
	}
	gov := sc.gov
	if gov == nil && sc.govName != "" {
		freqs := make([]float64, len(sc.device.SoC.OPPs))
		for i, o := range sc.device.SoC.OPPs {
			freqs[i] = o.FreqMHz
		}
		g, err := governor.ByName(sc.govName, freqs)
		if err != nil {
			return nil, err
		}
		gov = g
	}
	phone, err := device.New(sc.device, gov)
	if err != nil {
		return nil, err
	}
	if sc.ctrl != nil {
		phone.SetController(sc.ctrl)
	}
	switch {
	case sc.observer != nil && sc.sink != nil:
		obs, sk := sc.observer, sc.sink
		phone.SetObserver(func(s device.Sample) {
			obs(s)
			sk.Accept(0, s)
		})
	case sc.observer != nil:
		phone.SetObserver(sc.observer)
	case sc.sink != nil:
		sk := sc.sink
		phone.SetObserver(func(s device.Sample) { sk.Accept(0, s) })
	}
	if sc.traceFree {
		phone.SetTraceFree(true)
	}
	return &Session{phone: phone}, nil
}

// Phone exposes the underlying handset for inspection (temperatures, trace
// internals); mutate it between runs at your own risk.
func (s *Session) Phone() *device.Phone { return s.phone }

// Run executes the workload in full on the production stepping engine
// (device.Phone.RunEventContext), honoring context cancellation and deadlines
// between its segments. On early stop it returns the partial result
// together with the context's error.
func (s *Session) Run(ctx context.Context, w workload.Workload) (*device.RunResult, error) {
	return s.RunFor(ctx, w, 0)
}

// RunFor is Run truncated to durSec seconds of simulated time (<= 0 runs
// the workload's full duration).
func (s *Session) RunFor(ctx context.Context, w workload.Workload, durSec float64) (*device.RunResult, error) {
	if w == nil {
		return nil, errors.New("fleet: Run with nil workload")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return s.phone.RunEventContext(ctx, w, durSec)
}
