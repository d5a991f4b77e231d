package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analytics"
	"repro/internal/scenario"
	"repro/internal/users"
)

// Table1Cell is one scheme's outcome on one workload.
type Table1Cell struct {
	MaxScreenC float64
	MaxSkinC   float64
	AvgFreqGHz float64
}

// Table1Row is one workload (column of the paper's Table 1).
type Table1Row struct {
	Bench    string
	Baseline Table1Cell
	USTA     Table1Cell
	// PaperBaseline / PaperUSTA are the values published in Table 1, for
	// side-by-side comparison in reports.
	PaperBaseline Table1Cell
	PaperUSTA     Table1Cell
}

// Table1Result reproduces Table 1: all thirteen workloads under the
// baseline ondemand governor and under USTA with the default 37 °C limit.
type Table1Result struct {
	Rows   []Table1Row
	LimitC float64
}

// paperTable1 holds the published numbers in BenchmarkNames order.
var paperTable1 = map[string][2]Table1Cell{
	// name: {baseline{screen, skin, GHz}, usta{screen, skin, GHz}}
	"antutu-cpu":         {{33.4, 37.9, 1.04}, {31.7, 35.1, 1.22}},
	"antutu-cpu-gpu-ram": {{32.5, 36.3, 1.01}, {31.4, 35.1, 0.91}},
	"antutu-userexp":     {{28.5, 31.9, 1.22}, {29.2, 32.7, 1.05}},
	"antutu-full":        {{30.5, 34.0, 1.11}, {31.5, 34.0, 0.99}},
	"antutu-cpu-90min":   {{35.1, 39.3, 1.09}, {34.9, 38.8, 0.69}},
	"antutu-tester":      {{34.3, 42.8, 1.16}, {34.9, 41.1, 0.89}},
	"gfxbench":           {{26.3, 29.3, 0.85}, {28.5, 34.8, 1.16}},
	"vellamo":            {{28.6, 31.0, 0.97}, {29.7, 32.1, 0.96}},
	"skype":              {{40.5, 42.8, 1.09}, {35.4, 38.7, 0.72}},
	"youtube":            {{28.0, 30.4, 0.80}, {30.0, 32.9, 0.64}},
	"record":             {{32.8, 37.1, 0.86}, {32.5, 36.6, 0.81}},
	"charging":           {{29.0, 31.7, 0.45}, {29.9, 32.3, 0.39}},
	"game":               {{33.3, 36.6, 1.14}, {31.7, 35.1, 0.63}},
}

// PaperTable1 returns the published cell pair for a workload name.
func PaperTable1(bench string) (baseline, usta Table1Cell, ok bool) {
	v, ok := paperTable1[bench]
	return v[0], v[1], ok
}

// Table1Spec is the paper's Table 1 grid as a scenario: all thirteen
// workloads × {baseline, USTA@37 °C}, seeds pinned to the pre-scenario
// runner's offsets (workload construction at Seed+300, indexed per-job
// device seeds from base 300 with the scheme axis innermost), so the
// declarative path reproduces the hand-built one bit for bit.
func Table1Spec(cfg Config) *scenario.Spec {
	return &scenario.Spec{
		Version:   scenario.Version,
		Name:      "table1",
		Workloads: []string{"all"},
		Schemes: []scenario.Scheme{
			{Name: "baseline"},
			{Name: "usta", Controller: "usta", LimitC: users.DefaultLimitC},
		},
		Duration: scenario.Duration{Scale: cfg.Scale},
		Seeds: scenario.Seeds{
			Policy:   "indexed",
			Base:     300,
			Workload: uint64(cfg.Seed) + 300,
		},
	}
}

// RunTable1 executes all 26 runs (13 workloads × 2 schemes) as one fleet
// batch, expanded from the declarative Table1Spec grid. The spec pins the
// seeds the pre-scenario implementation used, so the table is unchanged.
func RunTable1(pl *Pipeline) *Table1Result {
	grid, err := Table1Spec(pl.Cfg).Expand(scenarioEnv(pl))
	if err != nil {
		// The spec is code-built and the pipeline config is validated by
		// the experiment entry points; failure is a programming error.
		panic(err)
	}
	stats, err := analytics.Flatten(grid, pl.mustRun(grid.Jobs))
	if err != nil {
		panic(err)
	}
	pairs, err := analytics.PairSchemes(stats, "baseline", "usta")
	if err != nil {
		panic(err)
	}

	out := &Table1Result{LimitC: users.DefaultLimitC}
	for _, p := range pairs {
		base, usta := p.Base.Result, p.Alt.Result
		row := Table1Row{
			Bench: p.Workload,
			Baseline: Table1Cell{
				MaxScreenC: base.MaxScreenC,
				MaxSkinC:   base.MaxSkinC,
				AvgFreqGHz: base.AvgFreqMHz / 1000,
			},
			USTA: Table1Cell{
				MaxScreenC: usta.MaxScreenC,
				MaxSkinC:   usta.MaxSkinC,
				AvgFreqGHz: usta.AvgFreqMHz / 1000,
			},
		}
		row.PaperBaseline, row.PaperUSTA, _ = PaperTable1(p.Workload)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the result as the harness table.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — baseline vs USTA (limit %.0f °C); paper values in parentheses\n", r.LimitC)
	fmt.Fprintf(&b, "%-20s | %-32s | %-32s\n", "", "baseline  scrn / skin / GHz", "USTA  scrn / skin / GHz")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s | %4.1f (%4.1f) %4.1f (%4.1f) %4.2f (%4.2f) | %4.1f (%4.1f) %4.1f (%4.1f) %4.2f (%4.2f)\n",
			row.Bench,
			row.Baseline.MaxScreenC, row.PaperBaseline.MaxScreenC,
			row.Baseline.MaxSkinC, row.PaperBaseline.MaxSkinC,
			row.Baseline.AvgFreqGHz, row.PaperBaseline.AvgFreqGHz,
			row.USTA.MaxScreenC, row.PaperUSTA.MaxScreenC,
			row.USTA.MaxSkinC, row.PaperUSTA.MaxSkinC,
			row.USTA.AvgFreqGHz, row.PaperUSTA.AvgFreqGHz,
		)
	}
	return b.String()
}
