// Package scenario is the declarative front door of the fleet engine: a
// versioned JSON/YAML schema describing a sweep grid — population ×
// workloads × ambients × scheme (governor/controller/limit) — plus seeds,
// durations and trace policy, that expands deterministically into
// []fleet.Job. The paper's whole evaluation is such a grid (10 users × 13
// workloads × 2 DVFS schemes across ambient conditions); a scenario file
// makes that grid a first-class input instead of hand-assembled Go.
//
// Expansion is order-stable and position-seeded: the grid is walked
// workload-major with the scheme axis innermost, every cell gets its seed
// from its unfiltered grid position, and include/exclude filters only drop
// cells — they never renumber them. The same spec therefore produces
// byte-identical per-job physics whether it is run whole, filtered, or at
// any fleet worker count.
package scenario

import (
	"fmt"
	"path"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/users"
	"repro/internal/workload"
)

// Version is the schema version this package reads and writes.
const Version = 1

// ambient bounds mirror the session options: the RC network is calibrated
// for habitable conditions.
const (
	minAmbientC = -40
	maxAmbientC = 60
)

// maxCells caps a spec's grid: workloads × users × ambients × limits ×
// schemes, counted before include/exclude filters. Expansion allocates
// every cell of the grid (about 2 KB each), so the cap bounds what one
// submitted spec can make a job server allocate. The largest committed
// spec, bench/workloads/population.json, has 2,080 cells.
const maxCells = 50_000

// Spec is one declarative sweep: the cartesian grid of its axes, filtered
// by Include/Exclude. Axes left empty collapse to a single default value
// (the default user, the device's own ambient, per-user limits, the
// baseline scheme), so a minimal spec is just a version and a workload
// list.
type Spec struct {
	// Version must equal 1.
	Version int `json:"version"`
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Workloads names the workload axis: entries from the thirteen paper
	// benchmarks (workload.BenchmarkNames), or the single entry "all" for
	// every one of them. Required.
	Workloads []string `json:"workloads"`
	// Population names the user axis: participant IDs ("a" through "j"),
	// "default" for the 37 °C default user, or the single entry "all" for
	// the whole study population. Empty means ["default"].
	Population []string `json:"population,omitempty"`
	// AmbientsC is the ambient-temperature axis in °C. Empty keeps the
	// device configuration's own ambient.
	AmbientsC []float64 `json:"ambients_c,omitempty"`
	// LimitsC is an explicit skin-limit axis in °C, overriding each user's
	// personal limit (heat-map sweeps). Empty uses per-user limits (the
	// default user gets users.DefaultLimitC). A scheme's own LimitC
	// overrides both.
	LimitsC []float64 `json:"limits_c,omitempty"`
	// Schemes is the governor/controller/limit axis. Empty means a single
	// stock baseline.
	Schemes []Scheme `json:"schemes,omitempty"`

	// Duration controls per-job run length.
	Duration Duration `json:"duration"`
	// Seeds controls workload construction and per-job device seeding.
	Seeds Seeds `json:"seeds"`
	// Device optionally overrides parts of the base device configuration.
	Device Device `json:"device"`
	// Predictor parameterizes self-training when a scheme needs one and the
	// caller does not supply it.
	Predictor PredictorSpec `json:"predictor"`
	// TraceFree runs every job without retaining Trace/Records — the O(1)
	// memory mode for large sweeps; pair with a streaming sink.
	TraceFree bool `json:"trace_free,omitempty"`

	// Include, when non-empty, keeps only jobs whose name (or any
	// '/'-separated name segment) matches one of these path.Match patterns.
	Include []string `json:"include,omitempty"`
	// Exclude drops jobs matching any of these patterns; it is applied
	// after Include. Filters never change surviving jobs' seeds.
	Exclude []string `json:"exclude,omitempty"`
}

// Scheme is one point on the governor/controller axis.
type Scheme struct {
	// Name labels the scheme in job names and analytics ("baseline",
	// "usta", ...). Empty defaults to the controller name, or "baseline".
	Name string `json:"name,omitempty"`
	// Governor is a cpufreq governor sysfs name ("ondemand", "interactive",
	// "conservative", "schedutil", "performance", "powersave"); empty keeps
	// the stock default (ondemand).
	Governor string `json:"governor,omitempty"`
	// Controller selects the thermal controller: "" or "none" for a stock
	// phone, "usta" for the paper's controller.
	Controller string `json:"controller,omitempty"`
	// LimitC pins this scheme's skin limit in °C, overriding both the
	// LimitsC axis and per-user limits (Table 1 runs USTA at the 37 °C
	// default for every workload).
	LimitC float64 `json:"limit_c,omitempty"`
}

// Label returns the scheme's effective name: Name when set, otherwise the
// controller name, with stock ("" / "none") schemes labelled "baseline".
// Expansion, analytics joins and the CLI all resolve labels through this
// one rule.
func (s Scheme) Label() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Controller == "" || s.Controller == "none" {
		return "baseline"
	}
	return s.Controller
}

// Duration controls how long each job runs.
type Duration struct {
	// Sec, when positive, runs every job for exactly Sec seconds,
	// bypassing Scale and MinSec.
	Sec float64 `json:"sec,omitempty"`
	// Scale multiplies each workload's full duration, mirroring the
	// experiment pipeline's scaling: values outside (0, 1] are treated as
	// 1, and the result is floored at MinSec.
	Scale float64 `json:"scale,omitempty"`
	// MinSec floors scaled durations (default 120 s — long enough for
	// thermal dynamics to show up).
	MinSec float64 `json:"min_sec,omitempty"`
}

// Seeds controls the sweep's deterministic seeding.
type Seeds struct {
	// Policy selects per-job device seeding: "derived" (default) pins each
	// job's seed to the fleet's splitmix derivation of (Base, grid
	// position); "indexed" pins device seed + Base + grid position,
	// matching the pre-scenario experiment runners. Both derive from the
	// unfiltered grid position, so include/exclude filters never change a
	// surviving job's seed.
	Policy string `json:"policy,omitempty"`
	// Base seeds the policy above.
	Base int64 `json:"base,omitempty"`
	// Workload seeds workload construction (phase jitter); the i-th paper
	// benchmark is built with Workload+i+1, exactly like
	// workload.Benchmarks.
	Workload uint64 `json:"workload,omitempty"`
}

// Device optionally overrides the base device configuration.
type Device struct {
	// Seed overrides the device seed (0 keeps the base configuration's).
	Seed int64 `json:"seed,omitempty"`
	// AmbientC overrides the base ambient in °C (the AmbientsC axis, when
	// set, overrides this per job).
	AmbientC *float64 `json:"ambient_c,omitempty"`
}

// PredictorSpec parameterizes predictor self-training for schemes that
// need one (usta) when the runner is not handed a trained predictor: the
// corpus is the thirteen benchmarks executed on the stock phone, exactly
// like the experiment pipeline's.
type PredictorSpec struct {
	// CorpusSeed seeds corpus workload construction (default 42, the
	// experiment pipeline's default).
	CorpusSeed uint64 `json:"corpus_seed,omitempty"`
	// CorpusPerRunSec truncates each corpus-collection run (0 = full
	// length). Reduced sweeps use ~1200 s — long enough to cover the hot
	// regime.
	CorpusPerRunSec float64 `json:"corpus_per_run_sec,omitempty"`
}

// Point is one expanded grid cell: the axis coordinates behind a job,
// carried alongside Jobs so analytics can pivot results back onto the grid.
type Point struct {
	// Index is the job's position in Grid.Jobs (== JobResult.Index when the
	// jobs are run as one batch).
	Index int
	// GridIndex is the job's position in the unfiltered grid; seeds derive
	// from it, so filtered runs reproduce the full sweep's per-job physics.
	GridIndex int
	// Cell identifies the grid cell modulo the scheme axis (the scheme axis
	// is innermost, so Cell == GridIndex / len(schemes)); scheme-vs-scheme
	// analytics join runs of the same cell on it.
	Cell int
	// Name is the job's name: '/'-joined axis values, single-valued axes
	// omitted (e.g. "skype/usta", "skype/usta/u=c/amb=35").
	Name string
	// Workload is the workload name.
	Workload string
	// Scheme is the scheme label.
	Scheme string
	// UserID is the participant label, or "default".
	UserID string
	// User is the participant (zero value for the default user).
	User users.User
	// AmbientC is the job's ambient temperature in °C.
	AmbientC float64
	// LimitC is the effective skin limit for this cell (what a usta scheme
	// enforces and what violation analytics measure against).
	LimitC float64
	// Seed is the job's pinned device seed, computed from the unfiltered
	// grid position under either seed policy.
	Seed int64
}

// Grid is an expanded scenario: jobs ready for fleet.Run plus the axis
// coordinates of each.
type Grid struct {
	Spec   *Spec
	Jobs   []fleet.Job
	Points []Point
}

// Limits returns the per-job effective skin limits, indexed like Jobs —
// the shape analytics' streaming violation sink wants.
func (g *Grid) Limits() []float64 {
	out := make([]float64, len(g.Points))
	for i, p := range g.Points {
		out[i] = p.LimitC
	}
	return out
}

// Subset returns the grid restricted to the cells at the given Jobs
// indices, in the given order. Each surviving cell keeps its GridIndex,
// Cell, Name and — crucially — its pinned Seed, so its physics are
// byte-identical to a full-grid run; only Index (and the JobSpec's Index)
// is renumbered to the subset position. This is what crash-recovery
// resume runs: the unfinished cells of a journaled sweep, as a grid of
// their own. Job specs are copied, not shared, because runners stamp
// dispatch indices into them.
func (g *Grid) Subset(idxs []int) (*Grid, error) {
	sub := &Grid{Spec: g.Spec,
		Jobs:   make([]fleet.Job, 0, len(idxs)),
		Points: make([]Point, 0, len(idxs))}
	seen := make(map[int]bool, len(idxs))
	for _, idx := range idxs {
		if idx < 0 || idx >= len(g.Jobs) {
			return nil, fmt.Errorf("scenario: subset index %d outside the %d-job grid", idx, len(g.Jobs))
		}
		if seen[idx] {
			return nil, fmt.Errorf("scenario: subset index %d listed twice", idx)
		}
		seen[idx] = true
		job := g.Jobs[idx]
		if job.Spec != nil {
			specCopy := *job.Spec
			specCopy.Index = len(sub.Jobs)
			job.Spec = &specCopy
		}
		pt := g.Points[idx]
		pt.Index = len(sub.Points)
		sub.Jobs = append(sub.Jobs, job)
		sub.Points = append(sub.Points, pt)
	}
	return sub, nil
}

// Env supplies what a spec cannot carry in JSON: the base device
// configuration and a trained predictor for usta schemes.
type Env struct {
	// Device is the base handset configuration (nil: device.DefaultConfig).
	Device *device.Config
	// Predictor backs usta controllers. Required iff NeedsPredictor().
	Predictor *core.Predictor
}

// NeedsPredictor reports whether any scheme requires a trained predictor.
func (s *Spec) NeedsPredictor() bool {
	for _, sc := range s.Schemes {
		if sc.Controller == "usta" {
			return true
		}
	}
	return false
}

// Validate checks the spec without expanding it. Expand validates too;
// Validate exists so parsers can reject bad files before a predictor or
// device configuration is available.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported version %d (want %d)", s.Version, Version)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario: no workloads (name one of %s, or \"all\")", strings.Join(workload.BenchmarkNames, ", "))
	}
	// The cap goes first: it needs only the axis lengths, while resolving
	// an axis costs work per entry.
	if !withinCap(axisLen(s.Workloads, len(workload.BenchmarkNames)), axisLen(s.Population, len(users.StudyPopulation())),
		len(s.AmbientsC), len(s.LimitsC), len(s.Schemes)) {
		return fmt.Errorf("scenario: the grid (workloads × users × ambients × limits × schemes) has more than %d cells", maxCells)
	}
	if _, err := s.workloadNames(); err != nil {
		return err
	}
	if _, err := s.populationUsers(); err != nil {
		return err
	}
	for _, a := range s.AmbientsC {
		if a < minAmbientC || a > maxAmbientC {
			return fmt.Errorf("scenario: ambient %g °C outside the calibrated range [%g, %g]", a, float64(minAmbientC), float64(maxAmbientC))
		}
	}
	if s.Device.AmbientC != nil {
		if a := *s.Device.AmbientC; a < minAmbientC || a > maxAmbientC {
			return fmt.Errorf("scenario: device ambient %g °C outside the calibrated range [%g, %g]", a, float64(minAmbientC), float64(maxAmbientC))
		}
	}
	for _, l := range s.LimitsC {
		if l <= 0 {
			return fmt.Errorf("scenario: non-positive limit %g °C", l)
		}
	}
	labels := map[string]int{}
	for i, sc := range s.Schemes {
		switch sc.Controller {
		case "", "none", "usta":
		default:
			return fmt.Errorf("scenario: scheme %d: unknown controller %q (want \"usta\" or \"none\")", i, sc.Controller)
		}
		if sc.Governor != "" {
			if _, err := governor.ByName(sc.Governor, []float64{384, 1512}); err != nil {
				return fmt.Errorf("scenario: scheme %d: %w", i, err)
			}
		}
		if sc.LimitC < 0 {
			return fmt.Errorf("scenario: scheme %d: negative limit %g °C", i, sc.LimitC)
		}
		// Duplicate labels would collapse distinct schemes into
		// indistinguishable job names that filters cannot address and
		// scheme-vs-scheme analytics reject much later with a confusing
		// error; fail at validation instead.
		label := sc.Label()
		if prev, dup := labels[label]; dup {
			return fmt.Errorf("scenario: schemes %d and %d share the label %q (set distinct names)", prev, i, label)
		}
		labels[label] = i
	}
	switch s.Seeds.Policy {
	case "", "derived", "indexed":
	default:
		return fmt.Errorf("scenario: unknown seed policy %q (want \"derived\" or \"indexed\")", s.Seeds.Policy)
	}
	if d := s.Duration; d.Sec < 0 || d.Scale < 0 || d.MinSec < 0 {
		return fmt.Errorf("scenario: negative duration field (sec=%g scale=%g min_sec=%g)", d.Sec, d.Scale, d.MinSec)
	}
	for _, pats := range [][]string{s.Include, s.Exclude} {
		for _, p := range pats {
			if _, err := path.Match(p, "probe"); err != nil {
				return fmt.Errorf("scenario: bad filter pattern %q: %w", p, err)
			}
		}
	}
	return nil
}

// axisLen is the length of a name axis whose single entry "all" stands for
// all of its n values.
func axisLen(names []string, all int) int {
	if len(names) == 1 && names[0] == "all" {
		return all
	}
	return len(names)
}

// withinCap reports whether the product of the axis lengths is at most
// maxCells; an empty axis collapses to one value. It multiplies without
// overflow.
func withinCap(axes ...int) bool {
	n := 1
	for _, a := range axes {
		if a > 1 {
			if n > maxCells/a {
				return false
			}
			n *= a
		}
	}
	return true
}

// workloadNames resolves the workload axis to concrete benchmark names.
func (s *Spec) workloadNames() ([]string, error) {
	if len(s.Workloads) == 1 && s.Workloads[0] == "all" {
		return append([]string(nil), workload.BenchmarkNames...), nil
	}
	out := make([]string, 0, len(s.Workloads))
	for _, name := range s.Workloads {
		if workload.ByName(name, 0) == nil {
			return nil, fmt.Errorf("scenario: unknown workload %q (want one of %s, or \"all\")", name, strings.Join(workload.BenchmarkNames, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// popEntry is one resolved population entry.
type popEntry struct {
	id   string
	user users.User // zero for "default"
}

// populationUsers resolves the population axis.
func (s *Spec) populationUsers() ([]popEntry, error) {
	pop := s.Population
	if len(pop) == 0 {
		pop = []string{"default"}
	}
	if len(pop) == 1 && pop[0] == "all" {
		all := users.StudyPopulation()
		out := make([]popEntry, len(all))
		for i, u := range all {
			out[i] = popEntry{id: u.ID, user: u}
		}
		return out, nil
	}
	out := make([]popEntry, 0, len(pop))
	for _, id := range pop {
		if id == "default" {
			out = append(out, popEntry{id: "default"})
			continue
		}
		u, ok := users.ByID(id)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown user %q (want \"a\"–\"j\", \"default\", or \"all\")", id)
		}
		out = append(out, popEntry{id: id, user: u})
	}
	return out, nil
}

// jobDur computes one job's duration from the workload's full length,
// mirroring the experiment pipeline's scaling (scale clamped to (0,1],
// floored at MinSec, default floor 120 s). An explicit Sec wins outright.
func (s *Spec) jobDur(full float64) float64 {
	if s.Duration.Sec > 0 {
		return s.Duration.Sec
	}
	sc := s.Duration.Scale
	if sc <= 0 || sc > 1 {
		sc = 1
	}
	d := full * sc
	min := s.Duration.MinSec
	if min <= 0 {
		min = 120
	}
	if d < min {
		d = min
	}
	return d
}

// matches reports whether the job name survives the Include/Exclude
// filters: a pattern matches the whole name or any '/'-separated segment.
func matchesFilters(name string, include, exclude []string) bool {
	match := func(pats []string) bool {
		segs := strings.Split(name, "/")
		for _, p := range pats {
			if ok, _ := path.Match(p, name); ok {
				return true
			}
			for _, seg := range segs {
				if ok, _ := path.Match(p, seg); ok {
					return true
				}
			}
		}
		return false
	}
	if len(include) > 0 && !match(include) {
		return false
	}
	return !match(exclude)
}

// Expand resolves the spec against env into a runnable Grid. The walk
// order is workloads → ambients → users → limits → schemes (scheme axis
// innermost), and every cell's seed comes from its unfiltered grid
// position, so filters and worker counts never change a surviving job's
// physics.
func (s *Spec) Expand(env Env) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NeedsPredictor() && env.Predictor == nil {
		return nil, fmt.Errorf("scenario: spec %q uses a usta scheme but no predictor was supplied", s.Name)
	}

	baseCfg := device.DefaultConfig()
	if env.Device != nil {
		baseCfg = *env.Device
	}
	if s.Device.Seed != 0 {
		baseCfg.Seed = s.Device.Seed
	}
	if s.Device.AmbientC != nil {
		baseCfg.Thermal.Ambient = *s.Device.AmbientC
	}

	wlNames, err := s.workloadNames()
	if err != nil {
		return nil, err
	}
	// Build each axis workload once per benchmark slot, the same
	// construction as workload.Benchmarks(Seeds.Workload).
	wls := make([]workload.Workload, len(wlNames))
	for i, name := range wlNames {
		wls[i] = workload.ByName(name, s.Seeds.Workload)
	}
	pop, err := s.populationUsers()
	if err != nil {
		return nil, err
	}
	ambients := s.AmbientsC
	ambientAxis := len(ambients) > 0
	if !ambientAxis {
		ambients = []float64{baseCfg.Thermal.Ambient}
	}
	limits := s.LimitsC
	limitAxis := len(limits) > 0
	if !limitAxis {
		limits = []float64{0} // placeholder: per-user limit
	}
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{{Name: "baseline"}}
	}
	schemeNames := make([]string, len(schemes))
	for i, sc := range schemes {
		schemeNames[i] = sc.Label()
	}
	// Governor factories are resolved once per scheme against the base
	// OPP table; each job still gets its own instance (governors are
	// stateful).
	freqs := make([]float64, len(baseCfg.SoC.OPPs))
	for i, o := range baseCfg.SoC.OPPs {
		freqs[i] = o.FreqMHz
	}
	govFactories := make([]func() governor.Governor, len(schemes))
	for i, sc := range schemes {
		if sc.Governor == "" {
			continue
		}
		factory, err := fleet.GovernorFactory(sc.Governor, freqs)
		if err != nil {
			return nil, fmt.Errorf("scenario: scheme %q: %w", schemeNames[i], err)
		}
		govFactories[i] = factory
	}

	g := &Grid{Spec: s}
	gridIndex := 0
	for wi, wl := range wls {
		dur := s.jobDur(wl.Duration())
		for _, amb := range ambients {
			cfg := baseCfg
			cfg.Thermal.Ambient = amb
			cfgCopy := cfg // one shared copy per (workload, ambient) row
			for _, pe := range pop {
				for _, lim := range limits {
					for si, sc := range schemes {
						idx := gridIndex
						gridIndex++

						effLimit := lim
						if !limitAxis {
							if pe.id == "default" {
								effLimit = users.DefaultLimitC
							} else {
								effLimit = pe.user.SkinLimitC
							}
						}
						if sc.LimitC > 0 {
							effLimit = sc.LimitC
						}

						segs := []string{wlNames[wi], schemeNames[si]}
						if len(pop) > 1 {
							segs = append(segs, "u="+pe.id)
						}
						if len(ambients) > 1 {
							segs = append(segs, fmt.Sprintf("amb=%g", amb))
						}
						if limitAxis && len(limits) > 1 {
							// Name by the axis coordinate, not the effective
							// limit: a scheme-level LimitC override would
							// otherwise collapse distinct axis cells into
							// duplicate names that filters cannot address.
							segs = append(segs, fmt.Sprintf("lim=%g", lim))
						}
						name := strings.Join(segs, "/")
						if !matchesFilters(name, s.Include, s.Exclude) {
							continue
						}

						job := fleet.Job{
							Name:      name,
							User:      pe.user,
							Workload:  wls[wi],
							Device:    &cfgCopy,
							DurSec:    dur,
							TraceFree: s.TraceFree,
							// Spec is the job's serializable twin: the same
							// workload/governor/controller resolved by name
							// instead of closure, so shard workers rebuild
							// identical physics in another process.
							Spec: &fleet.JobSpec{
								Name:       name,
								User:       pe.user,
								Workload:   fleet.WorkloadRef{Name: wlNames[wi], Seed: s.Seeds.Workload},
								Device:     &cfgCopy,
								Governor:   sc.Governor,
								Controller: sc.Controller,
								LimitC:     effLimit,
								DurSec:     dur,
								TraceFree:  s.TraceFree,
							},
						}
						// Seeds pin to the unfiltered grid position under
						// both policies, so filters and worker counts never
						// change a surviving job's physics.
						var seed int64
						if s.Seeds.Policy == "indexed" {
							seed = baseCfg.Seed + s.Seeds.Base + int64(idx)
							if seed == 0 {
								// Zero reads as "unset" downstream (the
								// fleet would silently substitute another
								// seed); nudge it like fleet.DeriveSeed does.
								seed = 1
							}
						} else {
							seed = fleet.DeriveSeed(s.Seeds.Base, idx)
						}
						job.Seed = seed
						if govFactories[si] != nil {
							job.Governor = govFactories[si]
						}
						if sc.Controller == "usta" {
							pred, limit := env.Predictor, effLimit
							job.Controller = func(users.User) device.Controller {
								return core.NewUSTA(pred, limit)
							}
						}
						g.Points = append(g.Points, Point{
							Index:     len(g.Jobs),
							GridIndex: idx,
							Cell:      idx / len(schemes),
							Name:      name,
							Workload:  wlNames[wi],
							Scheme:    schemeNames[si],
							UserID:    pe.id,
							User:      pe.user,
							AmbientC:  amb,
							LimitC:    effLimit,
							Seed:      seed,
						})
						g.Jobs = append(g.Jobs, job)
					}
				}
			}
		}
	}
	if len(g.Jobs) == 0 {
		return nil, fmt.Errorf("scenario: filters excluded every job of %q", s.Name)
	}
	return g, nil
}
