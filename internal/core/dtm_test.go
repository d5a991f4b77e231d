package core

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/users"
	"repro/internal/workload"
)

func TestDTMNeverFiresOnPaperWorkloadsWhileComfortIsExceeded(t *testing.T) {
	// The paper's §III motivation, executable: run the hottest evaluation
	// workloads under the stock CPU-temperature DTM. The die never reaches
	// the first trip point — the DTM takes no action — yet the skin
	// exceeds every participant's comfort limit.
	pop := users.StudyPopulation()
	minLimit := pop[0].SkinLimitC
	maxLimit := pop[0].SkinLimitC
	for _, u := range pop {
		if u.SkinLimitC < minLimit {
			minLimit = u.SkinLimitC
		}
		if u.SkinLimitC > maxLimit {
			maxLimit = u.SkinLimitC
		}
	}

	for _, w := range []workload.Workload{workload.Skype(41), workload.AnTuTuTester(42)} {
		phone := device.MustNew(device.DefaultConfig(), nil)
		dtm := NewCPUTempDTM()
		phone.SetController(dtm)
		res := phone.Run(w, 0)

		if dtm.Activations != 0 {
			t.Fatalf("%s: stock DTM intervened %d times — die model too hot for the paper's regime",
				w.Name(), dtm.Activations)
		}
		if res.MaxDieC >= dtm.TripC[0] {
			t.Fatalf("%s: die peaked at %.1f °C, above the first trip", w.Name(), res.MaxDieC)
		}
		if res.MaxSkinC < minLimit {
			t.Fatalf("%s: skin peaked at %.1f °C without crossing even the most sensitive limit (%.1f)",
				w.Name(), res.MaxSkinC, minLimit)
		}
	}
}

func TestDTMDoesThrottleWhenDieActuallyOverheats(t *testing.T) {
	// Sanity: the DTM is functional — with trips lowered into the die's
	// operating range it clamps.
	phone := device.MustNew(device.DefaultConfig(), nil)
	dtm := NewCPUTempDTM()
	dtm.TripC = []float64{45, 50, 55}
	phone.SetController(dtm)
	res := phone.Run(workload.SquareWave(3, 10, 1.0, 0.95, 0.95, 600), 0)
	if dtm.Activations == 0 {
		t.Fatal("lowered trips never fired under a saturating load")
	}
	if res.MaxDieC > 70 {
		t.Fatalf("throttling failed to bound the die: %.1f °C", res.MaxDieC)
	}
}

func TestDTMClampDepthScalesWithTrips(t *testing.T) {
	// With trips deep inside the die's operating range the controller
	// settles into a throttled equilibrium: the die cools under the clamp
	// until only the lower trips remain active — reactive DTM oscillates
	// around its trip points rather than pinning the deepest clamp.
	phone := device.MustNew(device.DefaultConfig(), nil)
	dtm := NewCPUTempDTM()
	dtm.TripC = []float64{30, 40, 50}
	phone.SetController(dtm)
	res := phone.Run(workload.SquareWave(4, 10, 1.0, 0.95, 0.95, 120), 0)
	top := phone.CPU().NumLevels() - 1
	got := phone.CPU().MaxLevel()
	if got >= top {
		t.Fatalf("clamp = %d; expected a standing throttle below the top level", got)
	}
	if got < top-3*dtm.StepsPerTrip {
		t.Fatalf("clamp = %d deeper than all trips allow (%d)", got, top-3*dtm.StepsPerTrip)
	}
	if res.MaxDieC < 30 {
		t.Fatalf("die never reached the first trip: %.1f °C", res.MaxDieC)
	}
}

func TestDTMDefaultsAndReset(t *testing.T) {
	dtm := NewCPUTempDTM()
	if dtm.PeriodSec() != 1 {
		t.Fatalf("PeriodSec = %v", dtm.PeriodSec())
	}
	dtm.Period = -1
	if dtm.PeriodSec() != 1 {
		t.Fatal("non-positive period must default")
	}
	dtm.Activations = 5
	dtm.Reset()
	if dtm.Activations != 0 {
		t.Fatal("Reset did not clear")
	}
	if dtm.Name() == "" || dtm.String() == "" {
		t.Fatal("identity strings broken")
	}
}

func TestDTMNoRecordIsNoop(t *testing.T) {
	phone := device.MustNew(device.DefaultConfig(), nil)
	dtm := NewCPUTempDTM()
	dtm.Act(phone)
	if dtm.Activations != 0 || phone.CPU().MaxLevel() != phone.CPU().NumLevels()-1 {
		t.Fatal("Act without a record must be a no-op")
	}
}

// CPUTempDTM models the platform's built-in dynamic thermal management
// (msm_thermal on the paper's Nexus 4): a reactive frequency clamp driven
// by the *die* temperature sensor with trip points far above anything skin
// comfort allows. It exists to make the paper's §III motivation
// executable: on every evaluation workload the die stays below the first
// trip point, so the stock DTM never intervenes — while the skin exceeds
// every participant's comfort limit. USTA fills exactly that gap.
//
// It is a trip-point die-temperature throttler.
type CPUTempDTM struct {
	// TripC are ascending die-temperature trip points; crossing trip i
	// clamps the maximum level down by StepsPerTrip·(i+1).
	TripC []float64
	// StepsPerTrip is the clamp depth per trip (1 = one OPP per trip).
	StepsPerTrip int
	// Period is the polling period in seconds (stock: 250 ms; 1 s here to
	// stay on the logging grid).
	Period float64

	// Activations counts polls that imposed a clamp.
	Activations int
}

var _ device.Controller = (*CPUTempDTM)(nil)

// NewCPUTempDTM returns the msm_thermal-like default: trips at 75/85/95 °C,
// two OPPs per trip.
func NewCPUTempDTM() *CPUTempDTM {
	return &CPUTempDTM{TripC: []float64{75, 85, 95}, StepsPerTrip: 2, Period: 1}
}

// Name implements device.Controller.
func (d *CPUTempDTM) Name() string { return "cpu-temp-dtm" }

// PeriodSec implements device.Controller.
func (d *CPUTempDTM) PeriodSec() float64 {
	if d.Period <= 0 {
		return 1
	}
	return d.Period
}

// Reset implements device.Controller.
func (d *CPUTempDTM) Reset() { d.Activations = 0 }

// Act implements device.Controller: read the die sensor from the logging
// record (the same observable the stock daemon polls) and clamp by trip
// count.
func (d *CPUTempDTM) Act(p *device.Phone) {
	rec, ok := p.LatestRecord()
	if !ok {
		return
	}
	tripped := 0
	for _, trip := range d.TripC {
		if rec.CPUTempC > trip {
			tripped++
		}
	}
	top := p.CPU().NumLevels() - 1
	clamp := top - tripped*d.StepsPerTrip
	if clamp < 0 {
		clamp = 0
	}
	if clamp < top {
		d.Activations++
	}
	p.CPU().SetMaxLevel(clamp)
}

// String describes the configuration.
func (d *CPUTempDTM) String() string {
	return fmt.Sprintf("cpu-temp-dtm(trips=%v, steps=%d)", d.TripC, d.StepsPerTrip)
}
