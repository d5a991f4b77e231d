package device

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/workload"
)

// runFresh builds a phone from cfg and runs w, returning the result.
func runFresh(t *testing.T, cfg Config, gov governor.Governor, w workload.Workload) *RunResult {
	t.Helper()
	p, err := New(cfg, gov)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(w, 0)
}

// sameRun asserts two results are byte-identical in every aggregate and in
// the full trace.
func sameRun(t *testing.T, label string, got, want *RunResult) {
	t.Helper()
	if got.MaxSkinC != want.MaxSkinC || got.MaxScreenC != want.MaxScreenC ||
		got.MaxDieC != want.MaxDieC || got.MaxBatteryC != want.MaxBatteryC {
		t.Fatalf("%s: peak temperatures diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
	if got.AvgFreqMHz != want.AvgFreqMHz || got.AvgUtil != want.AvgUtil ||
		got.EnergyJ != want.EnergyJ || got.WorkDone != want.WorkDone ||
		got.EndSoC != want.EndSoC {
		t.Fatalf("%s: aggregates diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("%s: trace retention differs", label)
	}
	if got.Trace != nil {
		if got.Trace.Len() != want.Trace.Len() {
			t.Fatalf("%s: trace rows %d vs %d", label, got.Trace.Len(), want.Trace.Len())
		}
		for _, s := range want.Trace.Series {
			g := got.Trace.Lookup(s.Name)
			if g == nil {
				t.Fatalf("%s: trace lost column %s", label, s.Name)
			}
			for i, v := range s.Values {
				if g.Values[i] != v {
					t.Fatalf("%s: trace %s row %d: %v vs %v", label, s.Name, i, g.Values[i], v)
				}
			}
		}
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records vs %d", label, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d diverged: %+v vs %+v", label, i, got.Records[i], want.Records[i])
		}
	}
}

// TestPhoneResetMatchesFreshConstruction is the contract behind the
// fleet's phone pool: a phone Reset to (gov, seed) must behave
// byte-identically — every aggregate, every trace row, every noisy sensor
// record — to a phone freshly constructed with the same configuration and
// seed, regardless of what ran on it before.
func TestPhoneResetMatchesFreshConstruction(t *testing.T) {
	cfg := DefaultConfig()
	dirty := workload.SquareWave(7, 10, 0.7, 0.95, 0.1, 180) // heats the phone, drains the pack
	target := workload.ByName("skype", 11)

	for _, seed := range []int64{1, 42, -9} {
		cfgSeed := cfg
		cfgSeed.Seed = seed
		want := runFresh(t, cfgSeed, nil, target)

		// Dirty a phone under a different seed, governor and controller
		// state, then Reset it to the target identity.
		dirtyCfg := cfg
		dirtyCfg.Seed = seed + 1000
		p, err := New(dirtyCfg, &governor.Performance{NumLevels: len(dirtyCfg.SoC.OPPs)})
		if err != nil {
			t.Fatal(err)
		}
		p.SetTraceFree(true)
		p.Run(dirty, 0)

		p.Reset(nil, seed)
		got := p.Run(target, 0)
		sameRun(t, "reset after dirty run", got, want)

		// A second reset on the same phone must be just as clean.
		p.Reset(nil, seed)
		sameRun(t, "second reset", p.Run(target, 0), want)
	}
}

// TestPhoneResetRestoresTouchCoupling: a run that ends mid-touch mutates
// the hand-bath coupling; Reset must restore the untouched configuration
// or the next job starts with a phantom palm on the cover.
func TestPhoneResetRestoresTouchCoupling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	// Constant touch: the run ends while the phone is held.
	held := workload.New("held", 1, workload.Phase{Name: "hold", Dur: 60, CPU: 0.8, Touch: true})
	want := runFresh(t, cfg, nil, workload.Idle(60))

	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(held, 0)
	p.Reset(nil, 5)
	sameRun(t, "reset after touched run", p.Run(workload.Idle(60), 0), want)
}

// BenchmarkPhoneReset measures one pooled reset on the default
// configuration: the per-job fixed cost the fleet's phone pool pays before
// a cell's first tick, dominated by reseeding the four sensors' legacy
// noise streams. A nil governor builds stock ondemand, as a job's governor
// factory would.
func BenchmarkPhoneReset(b *testing.B) {
	p := MustNew(DefaultConfig(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(nil, int64(i))
	}
}
