// Package trace records and thresholds simulation time series, exports them
// as CSV, and renders compact ASCII charts for the experiment harness
// output. Every figure in the reproduction is ultimately a set of Series.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Series is a named time series with a common time base held by its owner.
type Series struct {
	Name   string
	Unit   string
	Values []float64
}

// TimeSeries is a set of aligned series sharing one time axis.
type TimeSeries struct {
	TimeSec []float64
	Series  []*Series

	byName map[string]*Series
}

// NewWithCap creates an empty TimeSeries with the given column names, with
// every column (and the time axis) preallocated to hold rows entries, so
// appenders with a known row count — fixed-duration simulation runs —
// never regrow a column mid-loop. Units can be attached afterwards via
// Lookup.
func NewWithCap(rows int, names ...string) *TimeSeries {
	if rows < 0 {
		rows = 0
	}
	ts := &TimeSeries{byName: make(map[string]*Series, len(names))}
	if rows > 0 {
		ts.TimeSec = make([]float64, 0, rows)
	}
	for _, n := range names {
		s := &Series{Name: n}
		if rows > 0 {
			s.Values = make([]float64, 0, rows)
		}
		ts.Series = append(ts.Series, s)
		ts.byName[n] = s
	}
	return ts
}

// Append adds one row: a timestamp and one value per series, in declaration
// order. It panics if the value count does not match the series count —
// that is always a harness bug.
func (ts *TimeSeries) Append(t float64, values ...float64) {
	if len(values) != len(ts.Series) {
		panic(fmt.Sprintf("trace: Append got %d values for %d series", len(values), len(ts.Series)))
	}
	ts.TimeSec = append(ts.TimeSec, t)
	for i, v := range values {
		ts.Series[i].Values = append(ts.Series[i].Values, v)
	}
}

// Len returns the number of rows.
func (ts *TimeSeries) Len() int { return len(ts.TimeSec) }

// Lookup returns the series with the given name, or nil.
func (ts *TimeSeries) Lookup(name string) *Series { return ts.byName[name] }

// WriteCSV writes the time series as CSV with a header row.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	cols := make([]string, 0, len(ts.Series)+1)
	cols = append(cols, "time_s")
	for _, s := range ts.Series {
		name := s.Name
		if s.Unit != "" {
			name += "_" + s.Unit
		}
		cols = append(cols, name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	row := make([]string, len(ts.Series)+1)
	for i, t := range ts.TimeSec {
		row[0] = fmt.Sprintf("%.3f", t)
		for j, s := range ts.Series {
			row[j+1] = fmt.Sprintf("%.4f", s.Values[i])
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// FractionAbove returns the fraction of samples strictly above the
// threshold.
func FractionAbove(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// FirstCrossing returns the time at which the series first exceeds the
// threshold, and whether it ever does.
func FirstCrossing(timeSec, values []float64, threshold float64) (float64, bool) {
	for i, v := range values {
		if v > threshold {
			return timeSec[i], true
		}
	}
	return 0, false
}

// Chart renders a multi-line ASCII chart of the series: height rows by
// width columns, annotated with the min and max. Intended for harness
// stdout, not publication.
func Chart(values []float64, width, height int) string {
	if len(values) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	buckets := bucketMeans(values, width)
	lo, hi := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", len(buckets)))
	}
	for c, v := range buckets {
		row := int((v - lo) / (hi - lo) * float64(height-1))
		grid[height-1-row][c] = '•'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.2f ┤", hi)
	b.WriteString(string(grid[0]))
	b.WriteByte('\n')
	for r := 1; r < height-1; r++ {
		b.WriteString("         │")
		b.WriteString(string(grid[r]))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.2f ┤", lo)
	b.WriteString(string(grid[height-1]))
	b.WriteByte('\n')
	return b.String()
}

func bucketMeans(values []float64, width int) []float64 {
	if width > len(values) {
		width = len(values)
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		start := i * len(values) / width
		end := (i + 1) * len(values) / width
		if end <= start {
			end = start + 1
		}
		var s float64
		for _, v := range values[start:end] {
			s += v
		}
		out[i] = s / float64(end-start)
	}
	return out
}
