package device

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestRunReportJSON(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.YouTube(1), 60)

	var sb strings.Builder
	if err := res.WriteReportJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, sb.String())
	}
	if rep.Workload != "youtube" || rep.Governor != "ondemand" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.MaxSkinC != res.MaxSkinC || rep.EnergyJ != res.EnergyJ {
		t.Fatal("report values diverge from the result")
	}
	if rep.Samples < 55 || rep.Samples > 65 {
		t.Fatalf("samples = %d want ≈60", rep.Samples)
	}
	if rep.AvgFreqGHz <= 0 {
		t.Fatal("avg freq missing")
	}
}

func TestDailyMixEndToEnd(t *testing.T) {
	w := workload.DailyMix(9)
	if w.Duration() < 5000 {
		t.Fatalf("daily mix too short: %v s", w.Duration())
	}
	cfg := DefaultConfig()
	cfg.InitialSoC = 0.7
	p := MustNew(cfg, nil)
	res := p.Run(w, 0)
	// The session includes a gaming + call stretch that must warm the
	// phone well past idle, and a charging tail that must add charge.
	if res.MaxSkinC < 33 {
		t.Fatalf("daily mix peaked at only %.1f °C", res.MaxSkinC)
	}
	if res.EndSoC <= 0.3 {
		t.Fatalf("battery fully drained: %v", res.EndSoC)
	}
	// Charging tail: the last trace samples must be cool-ish and screen-off
	// (frequency parked).
	freqs := res.Trace.Lookup("freq_mhz").Values
	tail := freqs[len(freqs)-60:]
	for _, f := range tail {
		if f > 600 {
			t.Fatalf("charging tail running at %v MHz", f)
		}
	}
}

// JSON run reports: a machine-readable summary of a RunResult.

// Report is the serializable summary of a run.
type Report struct {
	Workload    string  `json:"workload"`
	Governor    string  `json:"governor"`
	Controller  string  `json:"controller,omitempty"`
	DurSec      float64 `json:"dur_sec"`
	MaxSkinC    float64 `json:"max_skin_c"`
	MaxScreenC  float64 `json:"max_screen_c"`
	MaxDieC     float64 `json:"max_die_c"`
	MaxBatteryC float64 `json:"max_battery_c"`
	AvgFreqGHz  float64 `json:"avg_freq_ghz"`
	AvgUtil     float64 `json:"avg_util"`
	EnergyJ     float64 `json:"energy_j"`
	Slowdown    float64 `json:"slowdown"`
	StartSoC    float64 `json:"start_soc"`
	EndSoC      float64 `json:"end_soc"`
	Samples     int     `json:"samples"`
}

// Report summarizes the run for serialization.
func (r *RunResult) Report() Report {
	return Report{
		Workload:    r.Workload,
		Governor:    r.Governor,
		Controller:  r.Ctrl,
		DurSec:      r.DurSec,
		MaxSkinC:    r.MaxSkinC,
		MaxScreenC:  r.MaxScreenC,
		MaxDieC:     r.MaxDieC,
		MaxBatteryC: r.MaxBatteryC,
		AvgFreqGHz:  r.AvgFreqMHz / 1000,
		AvgUtil:     r.AvgUtil,
		EnergyJ:     r.EnergyJ,
		Slowdown:    r.Slowdown(),
		StartSoC:    r.StartSoC,
		EndSoC:      r.EndSoC,
		Samples:     r.Trace.Len(),
	}
}

// WriteReportJSON writes the run summary as indented JSON.
func (r *RunResult) WriteReportJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Report())
}
