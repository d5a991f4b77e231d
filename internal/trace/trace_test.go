package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendAndLookup(t *testing.T) {
	ts := New("skin", "screen")
	ts.Append(0, 30, 28)
	ts.Append(1, 31, 29)
	if ts.Len() != 2 {
		t.Fatalf("Len = %d want 2", ts.Len())
	}
	s := ts.Lookup("skin")
	if s == nil || s.Values[1] != 31 {
		t.Fatalf("Lookup(skin) = %+v", s)
	}
	if ts.Lookup("missing") != nil {
		t.Fatal("Lookup(missing) should be nil")
	}
}

func TestAppendPanicsOnArityMismatch(t *testing.T) {
	ts := New("a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts.Append(0, 1)
}

func TestWriteCSV(t *testing.T) {
	ts := New("skin", "freq")
	ts.Lookup("skin").Unit = "c"
	ts.Append(0, 30, 384)
	ts.Append(3, 31.5, 1512)
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d want 3:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,skin_c,freq" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "3.000,31.5") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestFractionAbove(t *testing.T) {
	vs := []float64{1, 2, 3, 4}
	if got := FractionAbove(vs, 2); got != 0.5 {
		t.Fatalf("FractionAbove = %v want 0.5", got)
	}
	if got := FractionAbove(vs, 10); got != 0 {
		t.Fatalf("FractionAbove = %v want 0", got)
	}
	if got := FractionAbove(nil, 1); got != 0 {
		t.Fatalf("FractionAbove(nil) = %v want 0", got)
	}
	// Strictly above: equal values do not count.
	if got := FractionAbove([]float64{2, 2}, 2); got != 0 {
		t.Fatalf("FractionAbove(eq) = %v want 0", got)
	}
}

func TestFirstCrossing(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	vals := []float64{30, 33, 36, 39}
	at, ok := FirstCrossing(times, vals, 35)
	if !ok || at != 2 {
		t.Fatalf("FirstCrossing = %v,%v want 2,true", at, ok)
	}
	if _, ok := FirstCrossing(times, vals, 100); ok {
		t.Fatal("FirstCrossing should report no crossing")
	}
}

func TestChartContainsExtremes(t *testing.T) {
	out := Chart([]float64{10, 20, 30, 40, 50}, 5, 4)
	if !strings.Contains(out, "50.00") || !strings.Contains(out, "10.00") {
		t.Fatalf("chart missing extremes:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 {
		t.Fatalf("chart should have 4 lines:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	if Chart(nil, 10, 5) != "" {
		t.Fatal("empty chart should be empty string")
	}
}

// Property: FractionAbove is antitone in the threshold.
func TestFractionAboveAntitoneProperty(t *testing.T) {
	vs := []float64{30, 31, 33, 35, 37, 39, 41, 43}
	f := func(a, b float64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return FractionAbove(vs, lo) >= FractionAbove(vs, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithCapPreallocates(t *testing.T) {
	ts := NewWithCap(100, "a", "b")
	if cap(ts.TimeSec) != 100 {
		t.Fatalf("time axis cap = %d want 100", cap(ts.TimeSec))
	}
	for _, s := range ts.Series {
		if cap(s.Values) != 100 {
			t.Fatalf("series %q cap = %d want 100", s.Name, cap(s.Values))
		}
	}
	for i := 0; i < 100; i++ {
		ts.Append(float64(i), 1, 2)
	}
	if ts.Len() != 100 || ts.Lookup("b").Values[99] != 2 {
		t.Fatal("append into preallocated series broken")
	}
	if got := NewWithCap(-5, "a"); got.Len() != 0 {
		t.Fatal("negative capacity should behave like New")
	}
}

// New creates an empty TimeSeries with the given column names. Units can be
// attached afterwards via Lookup.
func New(names ...string) *TimeSeries { return NewWithCap(0, names...) }
