package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytics"
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

// tracedSpec is baselineSpec with every cell's trace retained, at a 37 °C
// ambient so that restored and live cells alike spend time over their
// user's limit.
var tracedSpec = strings.NewReplacer(`"trace_free": true`, `"trace_free": false`,
	`"population"`, `"ambients_c": [37], "population"`).Replace(baselineSpec)

func expandBaseline(t *testing.T, specJSON string) *Sweep {
	t.Helper()
	spec, err := scenario.Parse([]byte(specJSON))
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

// untraced marshals stats with each result's Trace and Records dropped,
// the shape a ledgered cell is restored in.
func untraced(t *testing.T, stats []analytics.JobStat) string {
	t.Helper()
	out := make([]analytics.JobStat, len(stats))
	for i, st := range stats {
		if st.Result != nil {
			r := *st.Result
			r.Trace, r.Records = nil, nil
			st.Result = &r
		}
		out[i] = st
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResumedRunSeesFullGrid resumes a sweep with half its cells ledgered:
// every hook sees full-grid indices, only the unfinished cells run and
// ledger, progress counts the restored cells, and the merged results and
// stats equal the uninterrupted run's. The traced input also pins the
// streamed violation counters to the post-hoc fold over the retained
// traces.
func TestResumedRunSeesFullGrid(t *testing.T) {
	for _, specJSON := range []string{baselineSpec, tracedSpec} {
		traced := specJSON == tracedSpec
		t.Run(fmt.Sprintf("traced=%t", traced), func(t *testing.T) {
			sw := expandBaseline(t, specJSON)
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
			if traced {
				posthoc, err := analytics.Flatten(sw.Grid, fresh.Results)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range posthoc {
					if fresh.Results[i].Result.Trace == nil || !st.HasViolationData() ||
						st.OverFrac != fresh.Stats[i].OverFrac || st.MeanExcessC != fresh.Stats[i].MeanExcessC {
						t.Fatalf("cell %d: streamed (%g, %g), trace fold (%g, %g)", i,
							fresh.Stats[i].OverFrac, fresh.Stats[i].MeanExcessC, st.OverFrac, st.MeanExcessC)
					}
				}
			}

			done := map[int]durable.CellResult{0: ledger[0], 2: ledger[2], 4: ledger[4]}
			plan, err := durable.Resume(sw.Grid, &durable.RecoveredJob{Cells: durable.GridCells(sw.Grid), Done: done}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var ran, ledgered []int
			var progress [][2]int
			resumed, err := sw.Run(context.Background(), plan, Hooks{
				Ledger: func(c durable.CellResult) { ledgered = append(ledgered, c.Index) },
				OnResult: func(r fleet.JobResult, acc analytics.ViolationAccum) {
					ran = append(ran, r.Index)
					if acc != ledger[r.Index].Violation {
						t.Errorf("cell %d: OnResult counters %+v, fresh ledger %+v", r.Index, acc, ledger[r.Index].Violation)
					}
				},
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
			if a, b := untraced(t, fresh.Stats), untraced(t, resumed.Stats); a != b {
				t.Fatalf("resumed stats diverged:\n got %s\nwant %s", b, a)
			}
			for i, r := range resumed.Results {
				if r.Index != i || r.SeedUsed != fresh.Results[i].SeedUsed || r.Result.MaxSkinC != fresh.Results[i].Result.MaxSkinC {
					t.Fatalf("resumed result %d = %+v, want %+v", i, r, fresh.Results[i])
				}
			}
		})
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
