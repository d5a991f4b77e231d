package scenario

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/users"
	"repro/internal/workload"
)

// TestParseMarshalRoundTrip pins the canonical JSON form: the golden file
// is Marshal output, so Parse → Marshal must reproduce it byte for byte,
// and Marshal → Parse must reproduce the spec.
func TestParseMarshalRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "table1_reduced.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(data) {
		t.Fatalf("Marshal is not the golden file's canonical form:\n--- got ---\n%s\n--- want ---\n%s", out, data)
	}
	spec2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("Parse(Marshal(spec)) != spec:\n%+v\n%+v", spec2, spec)
	}
}

// TestParseSweep decodes the ambient × limit sweep file and checks the
// decoded spec field by field, plus the round trip through Marshal.
func TestParseSweep(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Version:     1,
		Name:        "ambient-limit-sweep",
		Description: "population x ambients x limits under USTA",
		Workloads:   []string{"skype", "game"},
		Population:  []string{"all"},
		AmbientsC:   []float64{15, 25, 35},
		LimitsC:     []float64{35, 37, 39},
		Schemes:     []Scheme{{Name: "usta", Controller: "usta"}},
		Duration:    Duration{Sec: 300},
		Seeds:       Seeds{Policy: "derived", Base: 7, Workload: 42},
		TraceFree:   true,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec decoded as\n%+v\nwant\n%+v", spec, want)
	}
	// The file must round-trip through the canonical form.
	js, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := Parse(js)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatal("Marshal → Parse round trip changed the spec")
	}
}

// TestParseErrors is the invalid-spec error-message table: every rejected
// shape must fail with a message that names the problem.
func TestParseErrors(t *testing.T) {
	// 13 workloads × 10 users × 2,000 ambients = 260,000 cells in a 6 KB body.
	oversized := `{"version": 1, "workloads": ["all"], "population": ["all"], "ambients_c": [` +
		strings.TrimSuffix(strings.Repeat("25,", 2000), ",") + `]}`
	// The cap is checked before any entry is resolved.
	longAxis := `{"version": 1, "workloads": [` + strings.TrimSuffix(strings.Repeat(`"x",`, maxCells+1), ",") + `]}`
	cases := []struct {
		name    string
		input   string
		wantErr string
	}{
		{"empty", "", "empty spec"},
		{"bad version", `{"version": 2, "workloads": ["skype"]}`, "unsupported version 2"},
		{"no workloads", `{"version": 1}`, "no workloads"},
		{"unknown workload", `{"version": 1, "workloads": ["fortnite"]}`, `unknown workload "fortnite"`},
		{"unknown user", `{"version": 1, "workloads": ["skype"], "population": ["z"]}`, `unknown user "z"`},
		{"bad ambient", `{"version": 1, "workloads": ["skype"], "ambients_c": [99]}`, "outside the calibrated range"},
		{"bad device ambient", `{"version": 1, "workloads": ["skype"], "device": {"ambient_c": -80}}`, "outside the calibrated range"},
		{"bad controller", `{"version": 1, "workloads": ["skype"], "schemes": [{"controller": "thermal-daemon"}]}`, `unknown controller "thermal-daemon"`},
		{"bad governor", `{"version": 1, "workloads": ["skype"], "schemes": [{"governor": "warpspeed"}]}`, "warpspeed"},
		{"duplicate scheme names", `{"version": 1, "workloads": ["skype"], "schemes": [{"name": "fast"}, {"name": "fast", "governor": "performance"}]}`, `share the label "fast"`},
		{"duplicate default scheme labels", `{"version": 1, "workloads": ["skype"], "schemes": [{"controller": "usta", "limit_c": 37}, {"controller": "usta", "limit_c": 39}]}`, `share the label "usta"`},
		{"bad seed policy", `{"version": 1, "workloads": ["skype"], "seeds": {"policy": "random"}}`, `unknown seed policy "random"`},
		{"negative duration", `{"version": 1, "workloads": ["skype"], "duration": {"sec": -5}}`, "negative duration"},
		{"non-positive limit", `{"version": 1, "workloads": ["skype"], "limits_c": [0]}`, "non-positive limit"},
		{"bad filter", `{"version": 1, "workloads": ["skype"], "include": ["[x"]}`, `bad filter pattern "[x"`},
		{"unknown field", `{"version": 1, "workloads": ["skype"], "worklods": ["game"]}`, "unknown field"},
		{"oversized grid", oversized, "more than 50000 cells"},
		{"oversized axis of unknown names", longAxis, "more than 50000 cells"},
		// YAML syntax, even where it is also bad YAML, is refused as not JSON.
		{"yaml tab", "version: 1\n\tworkloads: [skype]", "specs are JSON"},
		{"yaml duplicate key", "version: 1\nversion: 1", "specs are JSON"},
		{"yaml unterminated string", `name: "oops`, "specs are JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.input))
			if err == nil {
				t.Fatalf("Parse accepted invalid spec %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestGridCap pins the cell cap's arithmetic: the product of the axes is
// compared with maxCells without overflowing, and empty axes count as one.
func TestGridCap(t *testing.T) {
	cases := []struct {
		axes []int
		want bool
	}{
		{[]int{13, 10, 8, 0, 2}, true},
		{[]int{maxCells}, true},
		{[]int{maxCells + 1}, false},
		{[]int{maxCells / 2, 2, 1, 0, 0}, true},
		{[]int{maxCells/2 + 1, 2}, false},
		{[]int{math.MaxInt, math.MaxInt}, false},
		{[]int{1 << 32, 1 << 32, 0}, false},
	}
	for _, tc := range cases {
		if got := withinCap(tc.axes...); got != tc.want {
			t.Errorf("withinCap(%v) = %v, want %v", tc.axes, got, tc.want)
		}
	}
}

// TestCommittedSpecsWithinCap parses every committed scenario file: the
// cell cap must admit all of them, the benchmark's 2,080-cell population
// sweep included.
func TestCommittedSpecsWithinCap(t *testing.T) {
	var files []string
	for _, pat := range []string{"testdata/*.json", "../../examples/sweep/*.json", "../../bench/workloads/*.json"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 6 {
		t.Fatalf("found only %d committed specs: %v", len(files), files)
	}
	for _, f := range files {
		if _, err := Load(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestExpandTable1Shape checks the reduced Table 1 grid expansion: 26 jobs
// with the scheme axis innermost, indexed seeds, and scaled durations.
func TestExpandTable1Shape(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "table1_reduced.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.NeedsPredictor() {
		t.Fatal("table1 spec must need a predictor")
	}
	if _, err := spec.Expand(Env{}); err == nil || !strings.Contains(err.Error(), "no predictor") {
		t.Fatalf("expansion without a predictor must fail, got %v", err)
	}
	grid, err := spec.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 26 || len(grid.Points) != 26 {
		t.Fatalf("grid = %d jobs / %d points, want 26", len(grid.Jobs), len(grid.Points))
	}
	baseSeed := device.DefaultConfig().Seed
	for i, p := range grid.Points {
		wantWl := workload.BenchmarkNames[i/2]
		wantScheme := "baseline"
		if i%2 == 1 {
			wantScheme = "usta"
		}
		if p.Workload != wantWl || p.Scheme != wantScheme {
			t.Fatalf("point %d = %s/%s, want %s/%s", i, p.Workload, p.Scheme, wantWl, wantScheme)
		}
		if p.Name != wantWl+"/"+wantScheme {
			t.Fatalf("point %d name = %q", i, p.Name)
		}
		if want := baseSeed + 300 + int64(i); p.Seed != want || grid.Jobs[i].Seed != want {
			t.Fatalf("point %d seed = %d, want %d", i, p.Seed, want)
		}
		if p.Cell != i/2 {
			t.Fatalf("point %d cell = %d, want %d", i, p.Cell, i/2)
		}
		if p.LimitC != users.DefaultLimitC {
			t.Fatalf("point %d limit = %g, want %g", i, p.LimitC, users.DefaultLimitC)
		}
		full := workload.ByName(wantWl, 342).Duration()
		wantDur := full * 0.5
		if wantDur < 120 {
			wantDur = 120
		}
		if grid.Jobs[i].DurSec != wantDur {
			t.Fatalf("job %d dur = %g, want %g", i, grid.Jobs[i].DurSec, wantDur)
		}
		if (grid.Jobs[i].Controller != nil) != (wantScheme == "usta") {
			t.Fatalf("job %d controller presence wrong for %s", i, wantScheme)
		}
	}
	// The grid's workloads must be the exact Benchmarks(342) instances'
	// construction: same name and duration slot by slot.
	benches := workload.Benchmarks(342)
	for i, p := range grid.Points {
		if got, want := grid.Jobs[i].Workload.Duration(), benches[i/2].Duration(); got != want {
			t.Fatalf("point %s workload duration %g != Benchmarks slot %g", p.Name, got, want)
		}
	}
}

// TestExpandAxesAndLimits covers the population × ambients × limits axes:
// names carry the multi-valued axes, user limits resolve, and Limits()
// lines up with jobs.
func TestExpandAxesAndLimits(t *testing.T) {
	spec := &Spec{
		Version:    1,
		Workloads:  []string{"skype"},
		Population: []string{"b", "default"},
		AmbientsC:  []float64{15, 35},
		Schemes:    []Scheme{{Name: "usta", Controller: "usta"}},
		Duration:   Duration{Sec: 60},
	}
	grid, err := spec.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 4 {
		t.Fatalf("jobs = %d want 4 (1 workload × 2 ambients × 2 users)", len(grid.Jobs))
	}
	b, _ := users.ByID("b")
	wantLimits := []float64{b.SkinLimitC, users.DefaultLimitC, b.SkinLimitC, users.DefaultLimitC}
	if got := grid.Limits(); !reflect.DeepEqual(got, wantLimits) {
		t.Fatalf("Limits() = %v want %v", got, wantLimits)
	}
	if name := grid.Points[0].Name; name != "skype/usta/u=b/amb=15" {
		t.Fatalf("point 0 name = %q", name)
	}
	for i, p := range grid.Points {
		if got := grid.Jobs[i].Device.Thermal.Ambient; got != p.AmbientC {
			t.Fatalf("point %d job ambient %g != point ambient %g", i, got, p.AmbientC)
		}
	}

	// An explicit limit axis overrides user limits.
	spec.LimitsC = []float64{36, 40}
	grid, err = spec.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 8 {
		t.Fatalf("jobs = %d want 8 with the limit axis", len(grid.Jobs))
	}
	for _, p := range grid.Points {
		if p.LimitC != 36 && p.LimitC != 40 {
			t.Fatalf("point %s limit = %g, want axis value", p.Name, p.LimitC)
		}
		if !strings.Contains(p.Name, "lim=") {
			t.Fatalf("point name %q should carry the limit axis", p.Name)
		}
	}
}

// TestExpandFiltersKeepSeeds checks that include/exclude drop cells
// without renumbering the survivors' grid positions or seeds.
func TestExpandFiltersKeepSeeds(t *testing.T) {
	base := &Spec{
		Version:   1,
		Workloads: []string{"skype", "game"},
		Schemes:   []Scheme{{Name: "baseline"}, {Name: "usta", Controller: "usta", LimitC: 37}},
		Seeds:     Seeds{Policy: "indexed", Base: 100},
		Duration:  Duration{Sec: 60},
	}
	full, err := base.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	filtered := *base
	filtered.Exclude = []string{"usta"}
	grid, err := filtered.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 2 {
		t.Fatalf("filtered jobs = %d want 2", len(grid.Jobs))
	}
	for i, p := range grid.Points {
		if p.Scheme != "baseline" {
			t.Fatalf("exclude left a %s job", p.Scheme)
		}
		want := full.Points[p.GridIndex]
		if p.Seed != want.Seed || p.Name != want.Name {
			t.Fatalf("filtered point %d (grid %d) seed/name changed: %d/%q vs %d/%q",
				i, p.GridIndex, p.Seed, p.Name, want.Seed, want.Name)
		}
	}

	include := *base
	include.Include = []string{"game/*"}
	grid, err = include.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) != 2 {
		t.Fatalf("include kept %d jobs, want 2", len(grid.Jobs))
	}
	for _, p := range grid.Points {
		if p.Workload != "game" {
			t.Fatalf("include kept %q", p.Name)
		}
	}

	all := *base
	all.Include = []string{"vellamo"}
	if _, err := all.Expand(Env{Predictor: &core.Predictor{}}); err == nil || !strings.Contains(err.Error(), "excluded every job") {
		t.Fatalf("all-excluding filter should fail, got %v", err)
	}
}

// TestExpandDerivedSeeds checks the derived policy: every job's seed is
// pinned to the fleet's splitmix derivation of (base, grid position) —
// not left to the fleet at run time — so filters cannot renumber it.
func TestExpandDerivedSeeds(t *testing.T) {
	spec := &Spec{
		Version:   1,
		Workloads: []string{"skype", "game"},
		Schemes:   []Scheme{{Name: "baseline"}, {Name: "usta", Controller: "usta", LimitC: 37}},
		Seeds:     Seeds{Base: 9},
		Duration:  Duration{Sec: 60},
	}
	grid, err := spec.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range grid.Points {
		want := fleet.DeriveSeed(9, i)
		if grid.Jobs[i].Seed != want || p.Seed != want {
			t.Fatalf("job %d seed = %d/%d, want DeriveSeed(9, %d) = %d", i, grid.Jobs[i].Seed, p.Seed, i, want)
		}
	}
	// Filtering must keep the survivors' derived seeds: the same grid with
	// the usta half excluded reproduces the full grid's baseline seeds.
	filtered := *spec
	filtered.Exclude = []string{"usta"}
	fg, err := filtered.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fg.Jobs) != 2 {
		t.Fatalf("filtered jobs = %d want 2", len(fg.Jobs))
	}
	for i, p := range fg.Points {
		if want := grid.Points[p.GridIndex].Seed; fg.Jobs[i].Seed != want {
			t.Fatalf("filtered job %d seed = %d, full grid has %d", i, fg.Jobs[i].Seed, want)
		}
	}
}

// TestSpecString smoke-tests the summary line.
func TestSpecString(t *testing.T) {
	spec := &Spec{Version: 1, Name: "x", Workloads: []string{"all"}, Population: []string{"all"}, AmbientsC: []float64{15, 25}}
	s := spec.String()
	for _, want := range []string{"x:", "13 workloads", "10 users", "2 ambients", "1 schemes"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestGridSubset pins the crash-recovery resume contract: a subset grid
// keeps each surviving cell's name, seed and GridIndex (so physics are
// byte-identical to the full run) while renumbering Index and the
// JobSpec's dispatch index to subset positions — on a copy, never the
// shared spec.
func TestGridSubset(t *testing.T) {
	spec := &Spec{
		Version:   1,
		Workloads: []string{"skype", "game"},
		Schemes:   []Scheme{{Name: "baseline"}, {Name: "usta", Controller: "usta", LimitC: 37}},
		Seeds:     Seeds{Policy: "indexed", Base: 100},
		Duration:  Duration{Sec: 60},
	}
	grid, err := spec.Expand(Env{Predictor: &core.Predictor{}})
	if err != nil {
		t.Fatal(err)
	}
	origSpecIdx := make([]int, len(grid.Jobs))
	for i, j := range grid.Jobs {
		origSpecIdx[i] = j.Spec.Index
	}
	sub, err := grid.Subset([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != 2 || len(sub.Points) != 2 {
		t.Fatalf("subset size = %d/%d, want 2", len(sub.Jobs), len(sub.Points))
	}
	for i, src := range []int{3, 1} {
		p, orig := sub.Points[i], grid.Points[src]
		if p.Name != orig.Name || p.Seed != orig.Seed || p.GridIndex != orig.GridIndex {
			t.Fatalf("subset point %d lost identity: %+v vs %+v", i, p, orig)
		}
		if p.Index != i {
			t.Fatalf("subset point %d Index = %d", i, p.Index)
		}
		if sub.Jobs[i].Seed != grid.Jobs[src].Seed {
			t.Fatalf("subset job %d seed changed", i)
		}
		if sub.Jobs[i].Spec == nil || sub.Jobs[i].Spec.Index != i {
			t.Fatalf("subset job %d spec index = %v", i, sub.Jobs[i].Spec)
		}
		if sub.Jobs[i].Spec == grid.Jobs[src].Spec {
			t.Fatalf("subset job %d shares its JobSpec with the full grid", i)
		}
		if grid.Jobs[src].Spec.Index != origSpecIdx[src] {
			t.Fatalf("full grid job %d spec index mutated to %d", src, grid.Jobs[src].Spec.Index)
		}
	}
	if _, err := grid.Subset([]int{0, 4}); err == nil {
		t.Fatal("out-of-range subset index accepted")
	}
	if _, err := grid.Subset([]int{1, 1}); err == nil {
		t.Fatal("duplicate subset index accepted")
	}
}

// FuzzParseScenario feeds arbitrary bytes to Parse. Each input must
// either fail with an error or parse to a spec whose canonical form is a
// fixed point: Marshal → Parse → Marshal gives the same bytes. The
// committed corpus (testdata/fuzz/FuzzParseScenario) seeds it with
// testdata/table1_reduced.json, copies of the benchmark's three workload
// specs, and sweep-yaml, a YAML form of testdata/sweep.json that drives
// the refusal of input that is not a JSON object.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		first, err := spec.Marshal()
		if err != nil {
			t.Fatalf("Marshal of a parsed spec: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse of the canonical form: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("Marshal of the re-parsed spec: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical form is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
		}
	})
}

// TestMaterializedJobRunsLikeLocal: a spec materialized in-process must
// reproduce the exact result of the hand-built job it describes.
func TestMaterializedJobRunsLikeLocal(t *testing.T) {
	spec := fleet.JobSpec{
		Name:     "w",
		Workload: fleet.WorkloadRef{Name: "skype", Seed: 3},
		Governor: "conservative",
		Seed:     55,
		DurSec:   40,
	}
	job, err := Materialize(spec, workload.ByName("skype", 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, _ := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})
	got := gotAll[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	opps := device.DefaultConfig().SoC.OPPs
	freqs := make([]float64, len(opps))
	for i, o := range opps {
		freqs[i] = o.FreqMHz
	}
	gov, err := fleet.GovernorFactory("conservative", freqs)
	if err != nil {
		t.Fatal(err)
	}
	hand := fleet.Job{Name: "w", Workload: workload.ByName("skype", 3), Governor: gov, Seed: 55, DurSec: 40}
	refAll, _ := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{hand})
	ref := refAll[0]
	if got.Result.EnergyJ != ref.Result.EnergyJ || got.Result.MaxSkinC != ref.Result.MaxSkinC {
		t.Fatal("materialized job differs from the hand-built one")
	}
	if got.SeedUsed != 55 {
		t.Fatalf("seed %d, want the spec's 55", got.SeedUsed)
	}
	if got.Result.Governor != "conservative" {
		t.Fatalf("governor %q, want conservative", got.Result.Governor)
	}
}
