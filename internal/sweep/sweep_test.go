package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	"repro/internal/scenario"
)

// baselineSpec is a 6-cell trace-free sweep that needs no predictor.
const baselineSpec = `{
  "version": 1,
  "workloads": ["skype", "youtube", "game"],
  "population": ["a", "b"],
  "schemes": [{"name": "baseline"}],
  "duration": {"scale": 0.05},
  "seeds": {"policy": "indexed", "base": 5},
  "trace_free": true
}`

func expandBaseline(t *testing.T) *Sweep {
	t.Helper()
	spec, err := scenario.Parse([]byte(baselineSpec))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Expand(context.Background(), Config{Spec: spec, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sw.pred != nil {
		t.Fatal("predictor encoded for a grid without usta cells")
	}
	return sw
}

// TestResumedRunSeesFullGrid resumes a sweep with half its cells ledgered:
// every hook sees full-grid indices, only the unfinished cells run and
// ledger, progress counts the restored cells, and the merged results and
// stats equal the uninterrupted run's.
func TestResumedRunSeesFullGrid(t *testing.T) {
	sw := expandBaseline(t)
	ledger := map[int]durable.CellResult{}
	fresh, err := sw.Run(context.Background(), nil, Hooks{
		Ledger: func(c durable.CellResult) { ledger[c.Index] = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.FirstError(fresh.Results); err != nil {
		t.Fatal(err)
	}
	total := len(sw.Grid.Jobs)
	if len(ledger) != total {
		t.Fatalf("fresh run ledgered %d of %d cells", len(ledger), total)
	}

	done := map[int]durable.CellResult{0: ledger[0], 2: ledger[2], 4: ledger[4]}
	plan, err := durable.Resume(sw.Grid, &durable.RecoveredJob{Cells: durable.GridCells(sw.Grid), Done: done}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ran, ledgered []int
	var progress [][2]int
	resumed, err := sw.Run(context.Background(), plan, Hooks{
		Ledger:   func(c durable.CellResult) { ledgered = append(ledgered, c.Index) },
		OnResult: func(r fleet.JobResult) { ran = append(ran, r.Index) },
		Progress: func(d, n int) { progress = append(progress, [2]int{d, n}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(ran, []int{1, 3, 5}) || !sameSet(ledgered, []int{1, 3, 5}) {
		t.Fatalf("resume ran %v and ledgered %v, want cells 1, 3, 5", ran, ledgered)
	}
	if want := [][2]int{{4, 6}, {5, 6}, {6, 6}}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress = %v, want %v", progress, want)
	}
	a, _ := json.Marshal(fresh.Stats)
	b, _ := json.Marshal(resumed.Stats)
	if string(a) != string(b) {
		t.Fatalf("resumed stats diverged:\n got %s\nwant %s", b, a)
	}
	for i, r := range resumed.Results {
		if r.Index != i || r.SeedUsed != fresh.Results[i].SeedUsed || r.Result.MaxSkinC != fresh.Results[i].Result.MaxSkinC {
			t.Fatalf("resumed result %d = %+v, want %+v", i, r, fresh.Results[i])
		}
	}
}

// sameSet reports whether got holds exactly want's elements, any order.
func sameSet(got, want []int) bool {
	seen := map[int]int{}
	for _, v := range got {
		seen[v]++
	}
	for _, v := range want {
		seen[v]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return len(got) == len(want)
}
