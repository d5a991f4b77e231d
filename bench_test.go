// Benchmarks regenerating every table and figure of the paper, plus the
// design-choice ablations called out in DESIGN.md §7. Each benchmark runs
// one full experiment per iteration and reports the domain metrics the
// paper reports (peak temperatures, error rates, time-over-limit) via
// b.ReportMetric, so `go test -bench=.` doubles as the reproduction
// harness at reduced scale. Paper-scale artifacts come from
// `go run ./cmd/ustasim -experiment all`.
package repro_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/users"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchPl   *repro.Pipeline
)

// benchPipeline builds the shared reduced-scale pipeline once, outside any
// timed region.
func benchPipeline(b *testing.B) *repro.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		cfg := repro.DefaultExperimentConfig()
		cfg.Scale = 0.5
		cfg.CorpusPerRunSec = 1200
		cfg.MLPEpochs = 40
		benchPl = repro.NewPipeline(cfg)
		benchPl.Predictor() // build corpus + predictor up front
	})
	return benchPl
}

// BenchmarkFig1UserStudy regenerates Figure 1: the user-study session and
// per-user discomfort crossings.
func BenchmarkFig1UserStudy(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var crossed int
	for i := 0; i < b.N; i++ {
		res := repro.RunFig1(pl)
		crossed = 0
		for _, row := range res.Rows {
			if row.Crossed {
				crossed++
			}
		}
	}
	b.ReportMetric(float64(crossed), "users-crossed")
}

// BenchmarkFig2TimeOverLimit regenerates Figure 2: eleven USTA limit
// settings on the Skype call (paper anchor: 15.6 % for the default user).
func BenchmarkFig2TimeOverLimit(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var def float64
	for i := 0; i < b.N; i++ {
		def = repro.RunFig2(pl).DefaultRow().OverFrac
	}
	b.ReportMetric(def*100, "default-over-%")
}

// BenchmarkFig3PredictionModels regenerates Figure 3: 10-fold CV of the
// four models on both targets (paper anchors: REPTree 0.95 %/0.86 %).
func BenchmarkFig3PredictionModels(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var rep, lr float64
	for i := 0; i < b.N; i++ {
		res := repro.RunFig3(pl)
		r, _ := res.Row("REPTree")
		l, _ := res.Row("LinearRegression")
		rep, lr = r.SkinErrPct, l.SkinErrPct
	}
	b.ReportMetric(rep, "reptree-skin-err-%")
	b.ReportMetric(lr, "linreg-skin-err-%")
}

// BenchmarkFig4SkypeTrace regenerates Figure 4: baseline vs USTA Skype
// traces (paper anchors: 4.1 °C peak reduction, −34 % average frequency).
func BenchmarkFig4SkypeTrace(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var peakDelta, freqRed float64
	for i := 0; i < b.N; i++ {
		res := repro.RunFig4(pl)
		peakDelta, freqRed = res.PeakDeltaC, res.FreqReduction
	}
	b.ReportMetric(peakDelta, "peak-delta-C")
	b.ReportMetric(freqRed*100, "freq-reduction-%")
}

// BenchmarkFig5UserRatings regenerates Figure 5 (paper anchors: baseline
// 4.0, USTA 4.3).
func BenchmarkFig5UserRatings(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var base, usta float64
	for i := 0; i < b.N; i++ {
		res := repro.RunFig5(pl)
		base, usta = res.BaselineAvg, res.USTAAvg
	}
	b.ReportMetric(base, "baseline-rating")
	b.ReportMetric(usta, "usta-rating")
}

// BenchmarkTable1AllBenchmarks regenerates Table 1: 13 workloads × two
// schemes. The reported metric is the mean peak-skin reduction over the
// workloads where the baseline comes within 2 °C of the 37 °C limit — the
// set the paper highlights.
func BenchmarkTable1AllBenchmarks(b *testing.B) {
	pl := benchPipeline(b)
	b.ResetTimer()
	var meanReduction float64
	for i := 0; i < b.N; i++ {
		res := repro.RunTable1(pl)
		var sum float64
		n := 0
		for _, row := range res.Rows {
			if row.Baseline.MaxSkinC >= res.LimitC-2 {
				sum += row.Baseline.MaxSkinC - row.USTA.MaxSkinC
				n++
			}
		}
		if n > 0 {
			meanReduction = sum / float64(n)
		}
	}
	b.ReportMetric(meanReduction, "hot-set-peak-delta-C")
}

// BenchmarkPredictionOverhead measures one run-time skin prediction — the
// cost the paper reports as 5.603 ms per 3 s window on the Nexus 4
// (≈0.4 % overhead). The REPTree lookup here is nanoseconds; the paper's
// cost was dominated by the Java/WEKA stack.
func BenchmarkPredictionOverhead(b *testing.B) {
	pl := benchPipeline(b)
	pred := pl.Predictor()
	rec := repro.Record{CPUTempC: 55, BatteryTempC: 36, Util: 0.8, FreqMHz: 1242}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pred.PredictSkin(rec)
	}
}

// BenchmarkPredictionOverheadScreen measures the screen-side prediction
// (paper: 6.708 ms).
func BenchmarkPredictionOverheadScreen(b *testing.B) {
	pl := benchPipeline(b)
	pred := pl.Predictor()
	rec := repro.Record{CPUTempC: 55, BatteryTempC: 36, Util: 0.8, FreqMHz: 1242}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pred.PredictScreen(rec)
	}
}

// ustaSkypeRun executes a 15-minute USTA Skype call with the given
// controller tweaks and returns (peak skin, over-37 fraction, avg MHz).
func ustaSkypeRun(b *testing.B, pl *repro.Pipeline, mutate func(*core.USTA)) (float64, float64, float64) {
	b.Helper()
	cfg := repro.DefaultDeviceConfig()
	phone := device.MustNew(cfg, nil)
	u := core.NewUSTA(pl.Predictor(), users.DefaultLimitC)
	if mutate != nil {
		mutate(u)
	}
	phone.SetController(u)
	res := phone.Run(workload.Skype(77), 900)
	over := trace.FractionAbove(res.Trace.Lookup("skin_c").Values, users.DefaultLimitC)
	return res.MaxSkinC, over, res.AvgFreqMHz
}

// BenchmarkAblationPredictionPeriod sweeps the controller period (paper:
// 3 s; §IV-A suggests longer periods to cut overhead).
func BenchmarkAblationPredictionPeriod(b *testing.B) {
	pl := benchPipeline(b)
	for _, period := range []float64{1, 3, 10, 30} {
		b.Run(benchName("period", period), func(b *testing.B) {
			var peak, over float64
			for i := 0; i < b.N; i++ {
				peak, over, _ = ustaSkypeRun(b, pl, func(u *core.USTA) { u.Period = period })
			}
			b.ReportMetric(peak, "peak-C")
			b.ReportMetric(over*100, "over-%")
		})
	}
}

// BenchmarkAblationControllerShape compares the paper's ladder against the
// single-step and proportional alternatives.
func BenchmarkAblationControllerShape(b *testing.B) {
	pl := benchPipeline(b)
	shapes := []struct {
		name string
		pol  core.Policy
	}{
		{"ladder", nil}, // default
		{"hard", core.HardPolicy},
		{"proportional", core.ProportionalPolicy},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			var peak, mhz float64
			for i := 0; i < b.N; i++ {
				peak, _, mhz = ustaSkypeRun(b, pl, func(u *core.USTA) { u.Policy = s.pol })
			}
			b.ReportMetric(peak, "peak-C")
			b.ReportMetric(mhz/1000, "avg-GHz")
		})
	}
}

// BenchmarkAblationActivationMargin sweeps the activation margin (paper:
// 2 °C below the limit).
func BenchmarkAblationActivationMargin(b *testing.B) {
	pl := benchPipeline(b)
	for _, margin := range []float64{1, 2, 4} {
		b.Run(benchName("margin", margin), func(b *testing.B) {
			var peak, over float64
			for i := 0; i < b.N; i++ {
				peak, over, _ = ustaSkypeRun(b, pl, func(u *core.USTA) { u.Policy = core.MarginLadder(margin) })
			}
			b.ReportMetric(peak, "peak-C")
			b.ReportMetric(over*100, "over-%")
		})
	}
}

// BenchmarkAblationRuntimeModel swaps the run-time regressor (paper chose
// REPTree over M5P for build time and stability).
func BenchmarkAblationRuntimeModel(b *testing.B) {
	pl := benchPipeline(b)
	corpus := pl.Corpus()
	models := []struct {
		name    string
		factory func() repro.Regressor
	}{
		{"reptree", func() repro.Regressor { return repro.NewREPTreeRegressor(1) }},
		{"m5p", func() repro.Regressor { return repro.NewM5PRegressor() }},
		{"linreg", func() repro.Regressor { return repro.NewLinearRegressor() }},
	}
	for _, m := range models {
		pred, err := repro.TrainPredictorWith(corpus, m.factory)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			var peak, over float64
			for i := 0; i < b.N; i++ {
				peak, over, _ = ustaSkypeRun(b, pl, func(u *core.USTA) { u.Pred = pred })
			}
			b.ReportMetric(peak, "peak-C")
			b.ReportMetric(over*100, "over-%")
		})
	}
}

// BenchmarkAblationPerUser compares per-user limits against the 37 °C
// default across the population — the paper's central "user-specific"
// argument. Per-user configuration is not about minimizing violations in
// aggregate: it returns performance to tolerant users (higher average
// frequency) while protecting sensitive ones, so both sides of the
// trade-off are reported.
func BenchmarkAblationPerUser(b *testing.B) {
	pl := benchPipeline(b)
	run := func(limitFor func(users.User) float64) (meanOver, meanGHz float64) {
		pop := users.StudyPopulation()
		for _, u := range pop {
			cfg := repro.DefaultDeviceConfig()
			phone := device.MustNew(cfg, nil)
			ctrl := core.NewUSTA(pl.Predictor(), limitFor(u))
			phone.SetController(ctrl)
			res := phone.Run(workload.Skype(88), 600)
			meanOver += trace.FractionAbove(res.Trace.Lookup("skin_c").Values, u.SkinLimitC)
			meanGHz += res.AvgFreqMHz / 1000
		}
		n := float64(len(pop))
		return meanOver / n, meanGHz / n
	}
	b.Run("per-user", func(b *testing.B) {
		var over, ghz float64
		for i := 0; i < b.N; i++ {
			over, ghz = run(func(u users.User) float64 { return u.SkinLimitC })
		}
		b.ReportMetric(over*100, "mean-over-%")
		b.ReportMetric(ghz, "mean-GHz")
	})
	b.Run("default-37", func(b *testing.B) {
		var over, ghz float64
		for i := 0; i < b.N; i++ {
			over, ghz = run(func(users.User) float64 { return users.DefaultLimitC })
		}
		b.ReportMetric(over*100, "mean-over-%")
		b.ReportMetric(ghz, "mean-GHz")
	})
}

// BenchmarkFleetRun measures fleet throughput (jobs/sec) at 1, 4 and
// GOMAXPROCS workers on a fixed 16-job population batch, so future PRs can
// track the engine's scaling. The jobs are 5-minute Skype slices across
// the study population under per-user USTA — the paper's workload shape.
// Every leg runs the production engine except workers-1-tracefree-off,
// the fixed-tick oracle.
func BenchmarkFleetRun(b *testing.B) {
	pl := benchPipeline(b)
	pred := pl.Predictor()
	pop := repro.StudyPopulation()
	// One shared device configuration on the counter noise stream: legacy
	// math/rand reseeding is a fixed per-job cost (every pooled phone
	// reseeds four sensors), identical across stepping engines but large
	// enough to blur their ratio. Seed stays zero so the fleet still
	// derives a distinct seed per job.
	devCfg := repro.DefaultDeviceConfig()
	devCfg.Seed = 0
	devCfg.NoiseVersion = repro.NoiseVersionCounter
	jobs := make([]repro.Job, 16)
	for i := range jobs {
		u := pop[i%len(pop)]
		jobs[i] = repro.Job{
			Name:     u.ID,
			User:     u,
			Workload: repro.WorkloadByName("skype", uint64(i)),
			DurSec:   300,
			Device:   &devCfg,
			Controller: func(u repro.User) repro.Controller {
				return repro.NewUSTA(pred, u.SkinLimitC)
			},
		}
	}
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	// cfg.Event is left zero — the production engine — except on the
	// oracle leg.
	runBatch := func(b *testing.B, cfg repro.FleetConfig, jobs []repro.Job) {
		b.Helper()
		cfg.Seed = 42
		fl := repro.NewFleet(cfg)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results := fl.Run(ctx, jobs)
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	}
	for _, workers := range counts {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			runBatch(b, repro.FleetConfig{Workers: workers}, jobs)
		})
	}
	// Trace-free variant: the memory diet for population sweeps that only
	// consume aggregates (identical physics, no Trace/Records retention).
	free := make([]repro.Job, len(jobs))
	copy(free, jobs)
	for i := range free {
		free[i].TraceFree = true
	}
	b.Run("workers-1-tracefree", func(b *testing.B) {
		b.ReportAllocs()
		runBatch(b, repro.FleetConfig{Workers: 1}, free)
	})
}

// BenchmarkEventRun measures one device's stepping head to head on a
// 5-minute Skype slice (trace-free, stock governor, no controller — the
// pure stepping cost): the fixed-tick loop (RunContext, which still
// collects the predictor corpus and runs Fig. 1) against the production
// event-jump engine (RunEventContext). The metric is simulated seconds
// per wall second.
func BenchmarkEventRun(b *testing.B) {
	modes := []struct {
		name string
		run  func(*device.Phone, context.Context, repro.Workload, float64) (*repro.RunResult, error)
	}{
		{"off", (*device.Phone).RunContext},
		{"jump", (*device.Phone).RunEventContext},
	}
	const durSec = 300
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := repro.DefaultDeviceConfig()
			w := repro.WorkloadByName("skype", 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := device.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				p.SetTraceFree(true)
				if _, err := m.run(p, context.Background(), w, durSec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(durSec*float64(b.N)/b.Elapsed().Seconds(), "sim-sec/sec")
		})
	}
}

// BenchmarkSysIDCalibration measures the thermal system-identification
// path: fitting all 14 phone-model conductances from a one-hour logged
// trace (the porting-to-new-hardware workflow).
func BenchmarkSysIDCalibration(b *testing.B) {
	cfg := thermal.DefaultPhoneConfig()
	caps := []float64{cfg.CapDie, cfg.CapPkg, cfg.CapPCB, cfg.CapBattery,
		cfg.CapCoverMid, cfg.CapCoverUpper, cfg.CapScreen, cfg.CapFrame}
	edges := []thermal.SysIDEdge{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 2, B: 4}, {A: 2, B: 5},
		{A: 3, B: 4}, {A: 2, B: 6}, {A: 2, B: 7}, {A: 7, B: 4}, {A: 7, B: 6},
		{A: 4, B: thermal.AmbientNode}, {A: 5, B: thermal.AmbientNode},
		{A: 6, B: thermal.AmbientNode}, {A: 7, B: thermal.AmbientNode},
	}
	var relErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _ := thermal.NewPhone(cfg)
		tr := thermal.CollectSysIDTrace(net, 0.5, 7200, cfg.Ambient, func(k int) []float64 {
			pw := make([]float64, 8)
			if (k/120)%2 == 0 {
				pw[0] = 3
			} else {
				pw[0] = 0.3
			}
			pw[6] = 0.4
			return pw
		})
		got, err := thermal.FitConductances(tr, caps, edges)
		if err != nil {
			b.Fatal(err)
		}
		relErr = (abs(got[0]-1/cfg.ResDiePkg)/(1/cfg.ResDiePkg) +
			abs(got[10]-1/cfg.ResAmbCoverMid)/(1/cfg.ResAmbCoverMid)) / 2
	}
	b.ReportMetric(relErr*100, "fit-err-%")
}

// BenchmarkSurfaceMap measures the Therminator-style cover map solve.
func BenchmarkSurfaceMap(b *testing.B) {
	cfg := thermal.PhoneCoverConfig(25)
	srcs := thermal.PhoneCoverSources(cfg, 2.1, 0.1, 1.0)
	var peak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := thermal.SolveSurface(cfg, srcs)
		if err != nil {
			b.Fatal(err)
		}
		peak, _, _ = m.Max()
	}
	b.ReportMetric(peak, "peak-C")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func benchName(prefix string, v float64) string {
	if v == float64(int(v)) {
		return prefix + "-" + itoa(int(v))
	}
	return prefix
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
