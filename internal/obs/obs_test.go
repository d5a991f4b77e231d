package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/analytics"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sink"
)

func TestClassHistBinning(t *testing.T) {
	h := newClassHist("a", 40)
	h.add(19.9, 40)  // below span
	h.add(60.0, 40)  // at the top edge: overflow by definition
	h.add(100.0, 40) // far above: overflow and over-limit
	h.add(20.0, 40)  // first bin, inclusive lower edge
	h.add(59.9, 40)  // last bin
	h.add(40.25, 40) // interior bin, just over the limit

	if h.Samples != 6 {
		t.Fatalf("samples = %d, want 6", h.Samples)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("overflow = under %d / over %d, want 1 / 2", h.Under, h.Over)
	}
	// Strictly-above semantics: 60, 100, 59.9 and 40.25 exceed the limit.
	if h.OverLimit != 4 {
		t.Fatalf("over limit = %d, want 4", h.OverLimit)
	}
	if h.Bins[0] != 1 || h.Bins[HistBins-1] != 1 || h.Bins[40] != 1 {
		t.Fatalf("bins misplaced: first=%d last=%d mid=%d", h.Bins[0], h.Bins[HistBins-1], h.Bins[40])
	}
	var binned int64
	for _, n := range h.Bins {
		binned += n
	}
	if binned+h.Under+h.Over != h.Samples {
		t.Fatalf("bins+overflow = %d, want %d", binned+h.Under+h.Over, h.Samples)
	}
}

func TestSparkRing(t *testing.T) {
	if got := slot(-3); got != 117 {
		t.Fatalf("slot(-3) = %d, want 117 (negative seconds must not index negatively)", got)
	}
	var r sparkRing
	r.sample(5, 37)
	r.sample(5, 39)
	r.sample(5, 38) // non-monotone arrival: max stays 39
	r.job(6)
	snap := r.snapshot(6)
	if len(snap) != 2 || snap[0].T != 5 || snap[1].T != 6 {
		t.Fatalf("snapshot = %+v, want buckets t=5,6 oldest first", snap)
	}
	if snap[0].Samples != 3 || float64(snap[0].MaxSkinC) != 39 {
		t.Fatalf("bucket 5 = %+v", snap[0])
	}
	if snap[1].Jobs != 1 || !math.IsNaN(float64(snap[1].MaxSkinC)) {
		t.Fatalf("bucket 6 = %+v, want 1 job and null max (no samples)", snap[1])
	}

	// A full window later the slot is stale and resets in place; the old
	// second no longer appears in the window.
	r.sample(5+sparkLen, 42)
	snap = r.snapshot(5 + sparkLen)
	if len(snap) != 2 || snap[0].T != 6 || snap[1].T != 5+sparkLen {
		t.Fatalf("post-wrap snapshot = %+v", snap)
	}
	if snap[1].Samples != 1 || float64(snap[1].MaxSkinC) != 42 {
		t.Fatalf("recycled bucket = %+v, want a fresh count", snap[1])
	}
}

func TestFloatJSON(t *testing.T) {
	type wrap struct {
		A Float `json:"a"`
		B Float `json:"b"`
	}
	data, err := json.Marshal(wrap{A: Float(math.NaN()), B: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != `{"a":null,"b":0.25}` {
		t.Fatalf("marshal = %s", got)
	}
	var back wrap
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.A)) || back.B != 0.25 {
		t.Fatalf("roundtrip = %+v", back)
	}
}

func TestMetricWriterFormat(t *testing.T) {
	mw := &MetricWriter{}
	mw.Family("x_total", "Help text.", "counter")
	mw.Sample("x_total", []Label{{Name: "host", Value: `a"b` + "\nc"}}, 1.5)
	mw.Family("x_total", "Duplicate declaration.", "counter") // dropped
	mw.Sample("x_total", nil, 2)
	// Only backslash, double-quote and line feed are escaped: a tab,
	// U+2028 and é pass through as UTF-8, and an invalid byte becomes
	// U+FFFD.
	mw.Sample("x_total", []Label{{Name: "host", Value: "a\tb"}}, 3)
	mw.Sample("x_total", []Label{{Name: "host", Value: "a\u2028b"}}, 4)
	mw.Sample("x_total", []Label{{Name: "host", Value: "é"}}, 5)
	mw.Sample("x_total", []Label{{Name: "host", Value: "a\xffb\\"}}, 6)
	var b strings.Builder
	if _, err := mw.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total Help text.\n# TYPE x_total counter\n" +
		"x_total{host=\"a\\\"b\\nc\"} 1.5\n" +
		"x_total 2\n" +
		"x_total{host=\"a\tb\"} 3\n" +
		"x_total{host=\"a\u2028b\"} 4\n" +
		"x_total{host=\"é\"} 5\n" +
		"x_total{host=\"a\uFFFDb\\\\\"} 6\n"
	if b.String() != want {
		t.Fatalf("exposition:\n got %q\nwant %q", b.String(), want)
	}
}

// FuzzMetricWriterLabel checks label escaping against the text format's
// grammar: the rendered value is valid UTF-8, uses only the \\, \" and \n
// escapes, and un-escapes back to the input (to its U+FFFD-repaired form
// when the input is not valid UTF-8).
func FuzzMetricWriterLabel(f *testing.F) {
	for _, seed := range []string{"", "plain", `a"b` + "\nc", `back\slash`, "tab\there", "\u2028", "é", "\xff\xfe", `\n`, "\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		mw := &MetricWriter{}
		mw.Sample("m", []Label{{Name: "l", Value: v}}, 1)
		out := mw.b.String()
		if !utf8.ValidString(out) {
			t.Fatalf("exposition is not valid UTF-8: %q", out)
		}
		const pre, post = `m{l="`, "\"} 1\n"
		if !strings.HasPrefix(out, pre) || !strings.HasSuffix(out, post) {
			t.Fatalf("malformed sample line %q", out)
		}
		esc := out[len(pre) : len(out)-len(post)]
		var got strings.Builder
		for i := 0; i < len(esc); i++ {
			c := esc[i]
			switch {
			case c == '\\' && i+1 < len(esc):
				i++
				switch esc[i] {
				case '\\', '"':
					got.WriteByte(esc[i])
				case 'n':
					got.WriteByte('\n')
				default:
					t.Fatalf("escape \\%c is not in the text format: %q", esc[i], esc)
				}
			case c == '\\' || c == '"' || c == '\n':
				t.Fatalf("unescaped %q in label value %q", c, esc)
			default:
				got.WriteByte(c)
			}
		}
		if want := strings.ToValidUTF8(v, "\uFFFD"); got.String() != want {
			t.Fatalf("round trip: got %q want %q", got.String(), want)
		}
	})
}

// obsGrid expands a 2-job grid (users a and b, one ambient, one 40 °C
// limit) for aggregator tests.
func obsGrid(t *testing.T) *scenario.Grid {
	t.Helper()
	spec, err := scenario.Parse([]byte(`{
	  "version": 1, "name": "unit",
	  "workloads": ["skype"],
	  "population": ["a", "b"],
	  "ambients_c": [30],
	  "limits_c": [40],
	  "schemes": [{"name": "baseline"}],
	  "duration": {"scale": 0.05},
	  "seeds": {"policy": "indexed", "base": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	devCfg := device.DefaultConfig()
	grid, err := spec.Expand(scenario.Env{Device: &devCfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Points) != 2 {
		t.Fatalf("grid = %d points, want 2", len(grid.Points))
	}
	return grid
}

func TestAggregatorLifecycle(t *testing.T) {
	a := NewAggregator(obsGrid(t))
	a.now = func() time.Time { return time.Unix(1000, 0) }
	ch, cancel := a.Watch()
	defer cancel()

	// Job 0: one sample over the 40 °C limit by 1 °C, one under.
	a.Accept(0, device.Sample{SkinC: 41})
	a.Accept(0, device.Sample{SkinC: 39})
	// Job 1: always violating.
	a.Accept(1, device.Sample{SkinC: 45})
	// Outside the grid: ignored.
	a.Accept(99, device.Sample{SkinC: 70})
	a.Accept(-1, device.Sample{SkinC: 70})

	s1 := a.Snapshot()
	if s1.Samples != 3 || s1.Done != 0 || s1.Final {
		t.Fatalf("mid-run snapshot = %+v", s1)
	}
	// No job finished yet: the deterministic section is empty, exactly as
	// the post-hoc path would report a grid with no results.
	if len(s1.Aggregates.Comfort) != 0 {
		t.Fatalf("comfort before any completion = %+v", s1.Aggregates.Comfort)
	}
	if len(s1.Spark) != 1 || s1.Spark[0].Samples != 3 {
		t.Fatalf("spark = %+v", s1.Spark)
	}

	a.JobDone(fleet.JobResult{Index: 0, Result: &device.RunResult{}}, analytics.ViolationAccum{N: 2, Over: 1, Excess: 1})
	select {
	case <-ch:
	default:
		t.Fatal("JobDone did not notify the watcher")
	}
	// Late and duplicate deliveries are dropped, mirroring the Bus.
	a.Accept(0, device.Sample{SkinC: 55})
	a.JobDone(fleet.JobResult{Index: 0, Result: &device.RunResult{}}, analytics.ViolationAccum{N: 9, Over: 9, Excess: 90})
	a.JobDone(fleet.JobResult{Index: 1, Result: &device.RunResult{}}, analytics.ViolationAccum{N: 1, Over: 1, Excess: 5})
	a.Finish("done")

	s2 := a.Snapshot()
	if s2.Seq <= s1.Seq {
		t.Fatalf("seq did not advance: %d then %d", s1.Seq, s2.Seq)
	}
	if !s2.Final || s2.Status != "done" || s2.Done != 2 || s2.Failed != 0 || s2.Samples != 3 {
		t.Fatalf("final snapshot = %+v", s2)
	}

	// The counters JobDone received reduce through the analytics
	// arithmetic: job 0 violated in 1 of 2 samples with 1 °C mean excess,
	// job 1 in 1 of 1 with 5 °C; the duplicate's counters were dropped.
	cs := s2.Aggregates.Comfort
	if len(cs) != 2 || cs[0].UserID != "a" || cs[1].UserID != "b" {
		t.Fatalf("comfort rows = %+v", cs)
	}
	if cs[0].NViolation != 1 || cs[0].MeanOverFrac != 0.5 || cs[0].MeanExcessC != 1 {
		t.Fatalf("user a comfort = %+v", cs[0])
	}
	if cs[1].MeanOverFrac != 1 || cs[1].MeanExcessC != 5 {
		t.Fatalf("user b comfort = %+v", cs[1])
	}
	hm := s2.Aggregates.HeatMap
	if hm == nil || len(hm.Rows) != 1 || len(hm.Cols) != 1 {
		t.Fatalf("heat map = %+v", hm)
	}
	if got := float64(hm.Cells[0][0]); got != 0.75 {
		t.Fatalf("heat cell = %g, want mean over-frac 0.75", got)
	}
	if hm.Counts[0][0] != 2 {
		t.Fatalf("heat count = %d, want 2", hm.Counts[0][0])
	}

	// Histograms ignored the dropped samples and kept class totals.
	for _, h := range s2.SkinHist {
		switch h.Class {
		case "a":
			if h.Samples != 2 || h.OverLimit != 1 {
				t.Fatalf("class a hist = %+v", h)
			}
		case "b":
			if h.Samples != 1 || h.OverLimit != 1 {
				t.Fatalf("class b hist = %+v", h)
			}
		default:
			t.Fatalf("unexpected class %q", h.Class)
		}
	}

	// Snapshot state is insulated from later mutation: the deep-copied
	// histogram must not alias the live bins.
	s2.SkinHist[0].Bins[0] = 999
	if a.HistSnapshot()[0].Bins[0] == 999 {
		t.Fatal("snapshot histograms alias the aggregator's bins")
	}
}

// TestAggregatorSinkContract compiles the Aggregator against sink.Sink.
func TestAggregatorSinkContract(t *testing.T) {
	var s sink.Sink = NewAggregator(obsGrid(t))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
