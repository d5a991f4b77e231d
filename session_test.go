package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
)

// TestSessionOptionValidation: every invalid configuration must surface as
// an error from NewSession — never a panic, never a silently-wrong phone.
func TestSessionOptionValidation(t *testing.T) {
	badStep := repro.DefaultDeviceConfig()
	badStep.StepSec = 0
	badGovPeriod := repro.DefaultDeviceConfig()
	badGovPeriod.GovernorPeriodSec = badGovPeriod.StepSec / 2

	cases := []struct {
		name    string
		opts    []repro.SessionOption
		wantErr bool
	}{
		{"defaults", nil, false},
		{"explicit device", []repro.SessionOption{repro.WithDevice(repro.DefaultDeviceConfig())}, false},
		{"governor by name", []repro.SessionOption{repro.WithGovernorName("interactive")}, false},
		{"seed and ambient", []repro.SessionOption{repro.WithSeed(9), repro.WithAmbientC(30)}, false},
		{"zero step", []repro.SessionOption{repro.WithDevice(badStep)}, true},
		{"governor period below step", []repro.SessionOption{repro.WithDevice(badGovPeriod)}, true},
		{"unknown governor name", []repro.SessionOption{repro.WithGovernorName("turbo")}, true},
		{"governor set twice", []repro.SessionOption{repro.WithGovernorName("ondemand"), repro.WithGovernorName("powersave")}, true},
		{"ambient below range", []repro.SessionOption{repro.WithAmbientC(-80)}, true},
		{"ambient above range", []repro.SessionOption{repro.WithAmbientC(95)}, true},
		{"nil controller", []repro.SessionOption{repro.WithController(nil)}, true},
		{"nil governor", []repro.SessionOption{repro.WithGovernor(nil)}, true},
		{"nil observer", []repro.SessionOption{repro.WithObserver(nil)}, true},
		{"nil option", []repro.SessionOption{nil}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := repro.NewSession(tc.opts...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if s != nil {
					t.Fatal("want nil session on error")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if s == nil || s.Phone() == nil {
				t.Fatal("valid options produced no phone")
			}
		})
	}
}

func TestSessionRunNilWorkload(t *testing.T) {
	s, err := repro.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), nil); err == nil {
		t.Fatal("Run(nil workload) should error")
	}
}

// TestSessionRunHonorsCancellation proves Session.Run stops mid-workload:
// the observer cancels the context partway through, and the returned
// partial result must cover less simulated time than the full run.
func TestSessionRunHonorsCancellation(t *testing.T) {
	w := repro.SquareWave(1, 10, 0.5, 0.9, 0.1, 600)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := repro.NewSession(
		repro.WithSeed(4),
		repro.WithObserver(func(smp repro.Sample) {
			if smp.TimeSec >= 30 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run should still return the partial result")
	}
	if res.DurSec < 30 || res.DurSec >= 600 {
		t.Fatalf("partial DurSec = %.1f, want in [30, 600)", res.DurSec)
	}
	if got := len(res.Trace.TimeSec); got == 0 {
		t.Fatal("partial run should carry a partial trace")
	}
}

// TestSessionRunDeadline: a deadline in the past stops the run before the
// first step.
func TestSessionRunDeadline(t *testing.T) {
	s, err := repro.NewSession(repro.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := s.Run(ctx, repro.Idle(120))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.DurSec != 0 {
		t.Fatalf("DurSec = %.2f, want 0 for a pre-expired deadline", res.DurSec)
	}
}

// TestSessionObserverStreams verifies the observer sees one sample per
// record period with monotonically increasing timestamps, matching the
// trace the aggregate result carries.
func TestSessionObserverStreams(t *testing.T) {
	var seen []repro.Sample
	s, err := repro.NewSession(
		repro.WithSeed(6),
		repro.WithObserver(func(smp repro.Sample) { seen = append(seen, smp) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), repro.StaircaseRamp(2, 0.1, 0.9, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Trace.TimeSec) {
		t.Fatalf("observer saw %d samples, trace has %d rows", len(seen), len(res.Trace.TimeSec))
	}
	skin := res.Trace.Lookup("skin_c").Values
	for i, smp := range seen {
		if i > 0 && smp.TimeSec <= seen[i-1].TimeSec {
			t.Fatalf("sample %d time %.2f not after %.2f", i, smp.TimeSec, seen[i-1].TimeSec)
		}
		if smp.SkinC != skin[i] {
			t.Fatalf("sample %d skin %.3f != trace %.3f", i, smp.SkinC, skin[i])
		}
	}
}

// TestSessionStatePersists: consecutive runs on one session continue on
// the same (warmed) phone, like back-to-back apps on a real device.
func TestSessionStatePersists(t *testing.T) {
	s, err := repro.NewSession(repro.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hot := repro.SquareWave(3, 10, 0.9, 1.0, 0.8, 120)
	first, err := s.Run(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	// The second run starts from the first run's heat; its starting (and
	// hence max) skin temperature cannot be below ambient-cold start.
	if second.MaxSkinC < first.MaxSkinC-2 {
		t.Fatalf("second run forgot the first's heat: %.1f vs %.1f", second.MaxSkinC, first.MaxSkinC)
	}
	if got := s.Phone().Time(); got < 235 {
		t.Fatalf("phone time %.1f, want ≥ ~240 after two 120 s runs", got)
	}
}
