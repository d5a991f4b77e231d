// Package analytics turns fleet sweep output into the paper-shaped
// aggregates the ROADMAP asks for: per-user comfort/violation
// distributions, ambient × limit violation heat maps, and scheme-vs-scheme
// energy/QoS deltas, rendered to CSV or markdown. It consumes the
// (Grid, []JobResult) pair a scenario run produces, plus a streaming
// ViolationSink that accumulates over-limit statistics on the fly with
// O(jobs) memory, so trace-free sweeps get them too.
package analytics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sink"
	"repro/internal/users"
)

// JobStat is one job's grid coordinates joined with its run outcome and
// violation statistics.
type JobStat struct {
	scenario.Point
	// Result is the job's aggregate outcome (nil when the job failed).
	Result *device.RunResult
	// Err is the job's failure, if any.
	Err error
	// OverFrac is the fraction of telemetry samples with skin temperature
	// strictly above LimitC; MeanExcessC is the average excess over those
	// samples. NaN when no violation data is available (trace-free run
	// without a ViolationSink).
	OverFrac    float64
	MeanExcessC float64
}

// HasViolationData reports whether OverFrac/MeanExcessC are populated.
func (j *JobStat) HasViolationData() bool { return !math.IsNaN(j.OverFrac) }

// Flatten joins an expanded grid with its fleet results into per-job
// stats, computing violation statistics from each job's trace when one was
// retained. Results must be the output of running grid.Jobs as one batch
// (same order, same length).
func Flatten(grid *scenario.Grid, results []fleet.JobResult) ([]JobStat, error) {
	if len(results) != len(grid.Jobs) {
		return nil, fmt.Errorf("analytics: %d results for %d jobs", len(results), len(grid.Jobs))
	}
	stats := make([]JobStat, len(results))
	for i, jr := range results {
		st := JobStat{
			Point:    grid.Points[i],
			Result:   jr.Result,
			Err:      jr.Err,
			OverFrac: math.NaN(), MeanExcessC: math.NaN(),
		}
		if jr.Result != nil && jr.Result.Trace != nil {
			if s := jr.Result.Trace.Lookup("skin_c"); s != nil {
				var acc ViolationAccum
				for _, v := range s.Values {
					acc.Add(v, st.LimitC)
				}
				acc.ApplyTo(&st)
			}
		}
		stats[i] = st
	}
	return stats, nil
}

// ViolationAccum is one job's running (samples, over-limit samples, summed
// excess) triple, folded one skin sample at a time — by ViolationSink
// over a sample stream and by Flatten over a retained trace. A sweep
// counts each live cell once, in its ViolationSink, and hands the
// counters to its ledger and live aggregator, which only reduce them
// with ApplyTo. The zero value is ready to use; the caller owns
// synchronization.
type ViolationAccum struct {
	N      int
	Over   int
	Excess float64
}

// Add folds one skin-temperature sample measured against limitC.
func (a *ViolationAccum) Add(skinC, limitC float64) {
	a.N++
	if skinC > limitC {
		a.Over++
		a.Excess += skinC - limitC
	}
}

// ApplyTo fills st's OverFrac/MeanExcessC from the accumulated counters.
// A counter that saw no samples leaves st untouched (OverFrac stays NaN).
func (a *ViolationAccum) ApplyTo(st *JobStat) {
	if a.N == 0 {
		return
	}
	st.OverFrac = float64(a.Over) / float64(a.N)
	if a.Over > 0 {
		st.MeanExcessC = a.Excess / float64(a.Over)
	} else {
		st.MeanExcessC = 0
	}
}

// ViolationSink accumulates per-job over-limit statistics from a telemetry
// stream, traced or trace-free. Construct it from the grid's per-job
// limits, wire it as (or into) the fleet sink, then Apply it to the
// flattened stats.
//
// Accept is deliberately lock-free: concurrent calls for different jobs
// touch disjoint counters, and the fleet delivers each job's samples from
// a single goroutine with Fleet.Run's return ordering every write before
// Apply. Do not call Accept concurrently for the same job.
type ViolationSink struct {
	limits []float64
	acc    []ViolationAccum
}

// NewViolationSink creates a sink measuring each job's skin samples
// against limits[job] (typically grid.Limits()).
func NewViolationSink(limits []float64) *ViolationSink {
	return &ViolationSink{
		limits: limits,
		acc:    make([]ViolationAccum, len(limits)),
	}
}

// Accept folds one sample into the job's violation counters. Samples for
// jobs outside the limit table are ignored.
func (v *ViolationSink) Accept(job sink.JobID, s device.Sample) {
	i := int(job)
	if i < 0 || i >= len(v.limits) {
		return
	}
	v.acc[i].Add(s.SkinC, v.limits[i])
}

// Close is a no-op; the sink holds no external resources.
func (v *ViolationSink) Close() error { return nil }

// Accum returns job i's accumulated counters (zero outside the table).
// Durability ledgers journal it per completed cell so a resumed sweep
// restores the exact violation statistics the lost stream produced.
// Like Apply, call it only after the job's samples are all delivered
// (Fleet.Run's OnResult callback, or after Run returns).
func (v *ViolationSink) Accum(i int) ViolationAccum {
	if i < 0 || i >= len(v.acc) {
		return ViolationAccum{}
	}
	return v.acc[i]
}

// Apply fills each stat's OverFrac/MeanExcessC from the accumulated
// stream, keyed by job index. Call it after the run completes (Fleet.Run's
// return is the ordering barrier); stats whose job saw no samples are left
// untouched.
func (v *ViolationSink) Apply(stats []JobStat) {
	for i := range stats {
		idx := stats[i].Index
		if idx < 0 || idx >= len(v.acc) {
			continue
		}
		v.acc[idx].ApplyTo(&stats[i])
	}
}

// UserComfort is one user's violation/comfort distribution over every job
// they appear in — the fleet-scale generalization of the paper's per-user
// comfort results.
type UserComfort struct {
	UserID string
	// LimitC is the user's personal skin limit (the default user's 37 °C).
	LimitC float64
	// N is the number of jobs aggregated; NViolation counts jobs with any
	// violation data at all.
	N          int
	NViolation int
	// MeanOverFrac / MaxOverFrac summarize the violation distribution over
	// jobs with violation data.
	MeanOverFrac float64
	MaxOverFrac  float64
	// MeanExcessC is the mean per-job excess while over the limit.
	MeanExcessC float64
	// MeanSlowdown / MeanEnergyJ summarize QoS and energy over all jobs.
	MeanSlowdown float64
	MeanEnergyJ  float64
}

// ComfortByUser aggregates stats into one row per user, ordered by user ID
// (with "default" last). Failed jobs are skipped.
func ComfortByUser(stats []JobStat) []UserComfort {
	byID := map[string]*UserComfort{}
	var order []string
	for _, st := range stats {
		if st.Err != nil || st.Result == nil {
			continue
		}
		uc := byID[st.UserID]
		if uc == nil {
			lim := users.DefaultLimitC
			if u, ok := users.ByID(st.UserID); ok {
				lim = u.SkinLimitC
			}
			uc = &UserComfort{UserID: st.UserID, LimitC: lim}
			byID[st.UserID] = uc
			order = append(order, st.UserID)
		}
		uc.N++
		uc.MeanSlowdown += st.Result.Slowdown()
		uc.MeanEnergyJ += st.Result.EnergyJ
		if st.HasViolationData() {
			uc.NViolation++
			uc.MeanOverFrac += st.OverFrac
			uc.MeanExcessC += st.MeanExcessC
			if st.OverFrac > uc.MaxOverFrac {
				uc.MaxOverFrac = st.OverFrac
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if (a == "default") != (b == "default") {
			return b == "default"
		}
		return a < b
	})
	out := make([]UserComfort, 0, len(order))
	for _, id := range order {
		uc := byID[id]
		if uc.N > 0 {
			uc.MeanSlowdown /= float64(uc.N)
			uc.MeanEnergyJ /= float64(uc.N)
		}
		if uc.NViolation > 0 {
			uc.MeanOverFrac /= float64(uc.NViolation)
			uc.MeanExcessC /= float64(uc.NViolation)
		}
		out = append(out, *uc)
	}
	return out
}

// quantileSorted is Quantile over an already-sorted non-empty slice, so
// multi-quantile reductions (Summarize, Pivot cells) sort once.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary is a distribution summary over a set of per-job values — the
// shape the ROADMAP's "percentile distributions" item asks heat-map cells
// to carry beyond the mean.
type Summary struct {
	N                        int
	Mean, P50, P95, P99, Max float64
}

// Summarize reduces values to a Summary (an empty input yields NaN
// statistics).
func Summarize(vs []float64) Summary {
	s := Summary{N: len(vs), Mean: math.NaN(), P50: math.NaN(), P95: math.NaN(), P99: math.NaN(), Max: math.NaN()}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	s.P50 = quantileSorted(sorted, 0.5)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	s.Max = sorted[len(sorted)-1]
	return s
}

// HeatMap is a dense row × column matrix of cell distribution summaries —
// the ambient × limit violation surface of the ROADMAP, but generic over
// the two numeric axes.
type HeatMap struct {
	// RowLabel / ColLabel name the axes (e.g. "ambient_c", "limit_c").
	RowLabel, ColLabel string
	// ValueLabel names the aggregated quantity (e.g. "over_frac").
	ValueLabel string
	// Rows / Cols are the sorted distinct axis values.
	Rows, Cols []float64
	// Cells[r][c] is the mean value over jobs in that bucket (NaN when the
	// bucket is empty); Counts[r][c] is the bucket population.
	Cells  [][]float64
	Counts [][]int
	// P95/P99[r][c] are the bucket's distribution percentiles (NaN when
	// empty; equal to the value when the bucket holds one job).
	P95, P99 [][]float64
}

// HasDistribution reports whether any bucket aggregates more than one job
// — i.e. whether the percentile surfaces carry information beyond Cells.
func (h *HeatMap) HasDistribution() bool {
	for _, row := range h.Counts {
		for _, n := range row {
			if n > 1 {
				return true
			}
		}
	}
	return false
}

// ViolationHeatMap pivots stats into an ambient × limit map of mean
// OverFrac. Jobs without violation data (or failed jobs) are skipped.
func ViolationHeatMap(stats []JobStat) *HeatMap {
	return Pivot(stats, "ambient_c", "limit_c", "over_frac",
		func(st *JobStat) (float64, float64, float64, bool) {
			if st.Err != nil || !st.HasViolationData() {
				return 0, 0, 0, false
			}
			return st.AmbientC, st.LimitC, st.OverFrac, true
		})
}

// Pivot builds a heat map from an arbitrary (row, col, value) projection;
// cells average every accepted job that lands in them.
func Pivot(stats []JobStat, rowLabel, colLabel, valueLabel string, project func(*JobStat) (row, col, value float64, ok bool)) *HeatMap {
	rowSet := map[float64]bool{}
	colSet := map[float64]bool{}
	cells := map[[2]float64][]float64{}
	for i := range stats {
		r, c, v, ok := project(&stats[i])
		if !ok {
			continue
		}
		rowSet[r] = true
		colSet[c] = true
		key := [2]float64{r, c}
		cells[key] = append(cells[key], v)
	}
	h := &HeatMap{RowLabel: rowLabel, ColLabel: colLabel, ValueLabel: valueLabel}
	for r := range rowSet {
		h.Rows = append(h.Rows, r)
	}
	for c := range colSet {
		h.Cols = append(h.Cols, c)
	}
	sort.Float64s(h.Rows)
	sort.Float64s(h.Cols)
	h.Cells = make([][]float64, len(h.Rows))
	h.Counts = make([][]int, len(h.Rows))
	h.P95 = make([][]float64, len(h.Rows))
	h.P99 = make([][]float64, len(h.Rows))
	for ri, r := range h.Rows {
		h.Cells[ri] = make([]float64, len(h.Cols))
		h.Counts[ri] = make([]int, len(h.Cols))
		h.P95[ri] = make([]float64, len(h.Cols))
		h.P99[ri] = make([]float64, len(h.Cols))
		for ci, c := range h.Cols {
			s := Summarize(cells[[2]float64{r, c}])
			h.Cells[ri][ci] = s.Mean
			h.Counts[ri][ci] = s.N
			h.P95[ri][ci] = s.P95
			h.P99[ri][ci] = s.P99
		}
	}
	return h
}

// SchemePair joins the two runs of one grid cell under two schemes.
type SchemePair struct {
	Workload string
	UserID   string
	AmbientC float64
	LimitC   float64
	Base     *JobStat
	Alt      *JobStat
}

// PairSchemes joins stats of the same grid cell (Point.Cell — the scheme
// axis is the grid's innermost, so two schemes of one cell share it)
// across the base and alt schemes, in first-appearance order. Every cell
// must appear under both schemes exactly once.
func PairSchemes(stats []JobStat, base, alt string) ([]SchemePair, error) {
	pairs := map[int]*SchemePair{}
	var order []int
	for i := range stats {
		st := &stats[i]
		if st.Scheme != base && st.Scheme != alt {
			continue
		}
		p := pairs[st.Cell]
		if p == nil {
			p = &SchemePair{Workload: st.Workload, UserID: st.UserID, AmbientC: st.AmbientC, LimitC: st.LimitC}
			pairs[st.Cell] = p
			order = append(order, st.Cell)
		}
		slot := &p.Base
		if st.Scheme == alt {
			slot = &p.Alt
			p.LimitC = st.LimitC // the controlled scheme's limit is the cell's
		}
		if *slot != nil {
			return nil, fmt.Errorf("analytics: duplicate %s run for %s", st.Scheme, st.Name)
		}
		*slot = st
	}
	out := make([]SchemePair, 0, len(order))
	for _, cell := range order {
		p := pairs[cell]
		if p.Base == nil || p.Alt == nil {
			return nil, fmt.Errorf("analytics: cell %s/u=%s/amb=%g missing a %s or %s run", p.Workload, p.UserID, p.AmbientC, base, alt)
		}
		out = append(out, *p)
	}
	return out, nil
}

// Delta is one cell's scheme-vs-scheme outcome: alt minus base (negative
// energy/peak deltas mean the alternative improved on the baseline).
type Delta struct {
	Workload string
	UserID   string
	AmbientC float64
	LimitC   float64
	// DMaxSkinC / DMaxScreenC are peak-temperature deltas in °C.
	DMaxSkinC   float64
	DMaxScreenC float64
	// DAvgFreqMHz is the average-frequency delta.
	DAvgFreqMHz float64
	// DEnergyPct is the energy delta as a percentage of the base run's.
	DEnergyPct float64
	// DSlowdown is the QoS delta (fraction of demanded work unserved).
	DSlowdown float64
	// DOverFrac is the violation-time delta (NaN without violation data).
	DOverFrac float64
}

// CompareSchemes reduces paired runs to per-cell deltas (alt − base).
// Cells whose runs failed are reported as an error.
func CompareSchemes(stats []JobStat, base, alt string) ([]Delta, error) {
	pairs, err := PairSchemes(stats, base, alt)
	if err != nil {
		return nil, err
	}
	out := make([]Delta, 0, len(pairs))
	for _, p := range pairs {
		if p.Base.Err != nil {
			return nil, fmt.Errorf("analytics: %s run of %s failed: %w", base, p.Workload, p.Base.Err)
		}
		if p.Alt.Err != nil {
			return nil, fmt.Errorf("analytics: %s run of %s failed: %w", alt, p.Workload, p.Alt.Err)
		}
		b, a := p.Base.Result, p.Alt.Result
		d := Delta{
			Workload:    p.Workload,
			UserID:      p.UserID,
			AmbientC:    p.AmbientC,
			LimitC:      p.LimitC,
			DMaxSkinC:   a.MaxSkinC - b.MaxSkinC,
			DMaxScreenC: a.MaxScreenC - b.MaxScreenC,
			DAvgFreqMHz: a.AvgFreqMHz - b.AvgFreqMHz,
			DSlowdown:   a.Slowdown() - b.Slowdown(),
			DOverFrac:   math.NaN(),
		}
		if b.EnergyJ != 0 {
			d.DEnergyPct = (a.EnergyJ - b.EnergyJ) / b.EnergyJ * 100
		}
		if p.Base.HasViolationData() && p.Alt.HasViolationData() {
			d.DOverFrac = p.Alt.OverFrac - p.Base.OverFrac
		}
		out = append(out, d)
	}
	return out, nil
}
