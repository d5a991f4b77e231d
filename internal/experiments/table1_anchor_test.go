package experiments

import (
	"math"
	"testing"
)

// TestTable1PaperAnchors compares the full-scale Table 1 reproduction with
// the published numbers, column by column: the mean and the largest
// absolute error over the thirteen workloads must stay within the bounds
// below. The bounds are the errors of the current thermal model, rounded
// up to 0.1 °C or 0.01 GHz. Later changes may only tighten them, by
// calibrating the model against the measured anchors (the approach of
// Bhat et al., arXiv 1904.09814, who characterize power and temperature
// on commercial phones from measurement), never loosen them.
func TestTable1PaperAnchors(t *testing.T) {
	res := RunTable1(NewPipeline(DefaultConfig()))
	if len(res.Rows) != 13 {
		t.Fatalf("Table 1 has %d rows, want 13", len(res.Rows))
	}
	columns := []struct {
		name            string
		usta            bool
		get             func(Table1Cell) float64
		meanAbs, maxAbs float64
	}{
		{"baseline screen °C", false, func(c Table1Cell) float64 { return c.MaxScreenC }, 3.3, 5.9},
		{"baseline skin °C", false, func(c Table1Cell) float64 { return c.MaxSkinC }, 2.0, 4.4},
		{"baseline GHz", false, func(c Table1Cell) float64 { return c.AvgFreqGHz }, 0.17, 0.59},
		{"USTA screen °C", true, func(c Table1Cell) float64 { return c.MaxScreenC }, 2.2, 3.6},
		{"USTA skin °C", true, func(c Table1Cell) float64 { return c.MaxSkinC }, 1.5, 3.1},
		{"USTA GHz", true, func(c Table1Cell) float64 { return c.AvgFreqGHz }, 0.20, 0.47},
	}
	for _, col := range columns {
		var sum, max float64
		for _, row := range res.Rows {
			sim, paper := row.Baseline, row.PaperBaseline
			if col.usta {
				sim, paper = row.USTA, row.PaperUSTA
			}
			e := math.Abs(col.get(sim) - col.get(paper))
			sum += e
			max = math.Max(max, e)
		}
		mean := sum / float64(len(res.Rows))
		t.Logf("%-18s mean abs %.4f (bound %.2f), max abs %.4f (bound %.2f)", col.name, mean, col.meanAbs, max, col.maxAbs)
		if mean > col.meanAbs {
			t.Errorf("%s: mean abs error %.3f exceeds %.2f", col.name, mean, col.meanAbs)
		}
		if max > col.maxAbs {
			t.Errorf("%s: max abs error %.3f exceeds %.2f", col.name, max, col.maxAbs)
		}
	}
}
