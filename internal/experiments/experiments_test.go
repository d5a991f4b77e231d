package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/users"
)

// testPipeline is shared across the experiment tests: a reduced-scale but
// hot-regime-covering configuration.
var (
	tpOnce sync.Once
	tp     *Pipeline
)

func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	tpOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 0.5
		cfg.CorpusPerRunSec = 1200
		cfg.MLPEpochs = 30
		tp = NewPipeline(cfg)
	})
	return tp
}

func TestPipelineCorpusCoversHotRegime(t *testing.T) {
	pl := pipeline(t)
	corpus := pl.Corpus()
	if len(corpus) < 5000 {
		t.Fatalf("corpus = %d records, want thousands", len(corpus))
	}
	maxSkin := 0.0
	for _, r := range corpus {
		if r.SkinTempC > maxSkin {
			maxSkin = r.SkinTempC
		}
	}
	if maxSkin < 38 {
		t.Fatalf("corpus max skin = %.1f °C; must cover the hot regime", maxSkin)
	}
}

func TestPipelineCachesCorpusAndPredictor(t *testing.T) {
	pl := pipeline(t)
	c1 := pl.Corpus()
	c2 := pl.Corpus()
	if &c1[0] != &c2[0] {
		t.Fatal("corpus rebuilt instead of cached")
	}
	if pl.Predictor() != pl.Predictor() {
		t.Fatal("predictor rebuilt instead of cached")
	}
}

func TestScaledFloorsAndCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.01
	if got := cfg.scaled(1800); got != 120 {
		t.Fatalf("scaled floor = %v want 120", got)
	}
	cfg.Scale = 0 // treated as 1
	if got := cfg.scaled(1800); got != 1800 {
		t.Fatalf("scaled(0) = %v want full duration", got)
	}
	cfg.Scale = 2 // >1 treated as 1
	if got := cfg.scaled(1800); got != 1800 {
		t.Fatalf("scaled(2) = %v want full duration", got)
	}
}

func TestFig1ThresholdOrdering(t *testing.T) {
	pl := pipeline(t)
	res := RunFig1(pl)
	if len(res.Rows) != 10 {
		t.Fatalf("fig1 rows = %d want 10", len(res.Rows))
	}
	// Monotonicity: on one shared session, a higher limit can never be
	// crossed earlier than a lower one.
	for _, a := range res.Rows {
		for _, b := range res.Rows {
			if a.Crossed && b.Crossed && a.SkinLimitC < b.SkinLimitC && a.CrossSec > b.CrossSec {
				t.Fatalf("user %s (%.1f °C) crossed after user %s (%.1f °C)",
					a.UserID, a.SkinLimitC, b.UserID, b.SkinLimitC)
			}
		}
	}
	// The most sensitive user (34.0 °C) must cross even in a reduced run.
	for _, row := range res.Rows {
		if row.UserID == "b" && !row.Crossed {
			t.Fatal("user b (34.0 °C) did not cross during the stressor session")
		}
	}
	if !strings.Contains(res.String(), "user") {
		t.Fatal("String() broken")
	}
}

func TestFig2LowLimitsSufferMore(t *testing.T) {
	pl := pipeline(t)
	res := RunFig2(pl)
	if len(res.Rows) != 11 {
		t.Fatalf("fig2 rows = %d want 11 (10 users + default)", len(res.Rows))
	}
	var b, g Fig2Row
	for _, row := range res.Rows {
		switch row.Label {
		case "b":
			b = row
		case "g":
			g = row
		}
	}
	// The 34.0 °C user cannot be fully protected (board-level heat alone
	// exceeds that limit); the 42.8 °C user should see almost no violation.
	if b.OverFrac <= g.OverFrac {
		t.Fatalf("over-limit fractions should fall with the limit: b=%.2f g=%.2f", b.OverFrac, g.OverFrac)
	}
	if g.OverFrac > 0.01 {
		t.Fatalf("user g (42.8 °C) spent %.1f%% over limit, want ≈0", g.OverFrac*100)
	}
	def := res.DefaultRow()
	if def.LimitC != users.DefaultLimitC {
		t.Fatalf("default row limit = %v", def.LimitC)
	}
	// The paper reports 15.6 % for the default user; our cleaner predictor
	// holds the call at or below the limit, so anything from ~0 to a modest
	// share is in-shape — but it must stay far below the sensitive users'.
	if def.OverFrac > 0.45 {
		t.Fatalf("default user over-limit fraction = %.3f, want a modest share (paper: 15.6%%)", def.OverFrac)
	}
	if b.OverFrac < def.OverFrac+0.2 {
		t.Fatalf("user b (34.0 °C) should suffer far more than the default user: %.2f vs %.2f",
			b.OverFrac, def.OverFrac)
	}
}

func TestFig3ModelOrdering(t *testing.T) {
	pl := pipeline(t)
	res := RunFig3(pl)
	if len(res.Rows) != 4 {
		t.Fatalf("fig3 rows = %d want 4", len(res.Rows))
	}
	rep, ok := res.Row("REPTree")
	if !ok {
		t.Fatal("REPTree row missing")
	}
	m5, _ := res.Row("M5P")
	lr, _ := res.Row("LinearRegression")

	// Paper shape: tree models are ≈1 % error; linear regression is
	// clearly worse.
	if rep.SkinErrPct > 2.0 {
		t.Fatalf("REPTree skin error = %.2f%%, want ≈1%%", rep.SkinErrPct)
	}
	if m5.SkinErrPct > 2.0 {
		t.Fatalf("M5P skin error = %.2f%%, want ≈1%%", m5.SkinErrPct)
	}
	if lr.SkinErrPct <= rep.SkinErrPct {
		t.Fatalf("LinearRegression (%.2f%%) should be worse than REPTree (%.2f%%)",
			lr.SkinErrPct, rep.SkinErrPct)
	}
	// The 1 °C gate must help (paper: M5P 0.96 → 0.26).
	if m5.SkinGatedPct >= m5.SkinErrPct {
		t.Fatal("gated error should be below the plain error")
	}
	if !strings.Contains(res.String(), "REPTree") {
		t.Fatal("String() broken")
	}
}

func TestFig4USTAReducesPeakAndFrequency(t *testing.T) {
	pl := pipeline(t)
	res := RunFig4(pl)
	if res.PeakDeltaC < 1.0 {
		t.Fatalf("USTA peak reduction = %.2f °C, want clearly positive (paper: 4.1)", res.PeakDeltaC)
	}
	if res.FreqReduction < 0.05 {
		t.Fatalf("USTA frequency reduction = %.1f%%, want noticeable (paper: 34%%)", res.FreqReduction*100)
	}
	if res.USTAOverFrac >= res.BaselineOverFrac {
		t.Fatal("USTA should spend less time above the limit than baseline")
	}
	if res.USTA.MaxSkinC > res.LimitC+1.5 {
		t.Fatalf("USTA peak %.1f °C strays too far above the %.0f °C limit", res.USTA.MaxSkinC, res.LimitC)
	}
	if !strings.Contains(res.String(), "peak skin") {
		t.Fatal("String() broken")
	}
}

func TestFig5RatingsAndPreferences(t *testing.T) {
	pl := pipeline(t)
	res := RunFig5(pl)
	if len(res.Rows) != 10 {
		t.Fatalf("fig5 rows = %d want 10", len(res.Rows))
	}
	if res.USTAAvg <= res.BaselineAvg {
		t.Fatalf("USTA average rating %.2f should beat baseline %.2f (paper: 4.3 vs 4.0)",
			res.USTAAvg, res.BaselineAvg)
	}
	if res.PreferUSTA <= res.PreferBaseline {
		t.Fatalf("more users should prefer USTA: %d vs %d", res.PreferUSTA, res.PreferBaseline)
	}
	if res.PreferUSTA+res.PreferBaseline+res.NoDifference != 10 {
		t.Fatal("preferences do not add up to 10")
	}
	// High-threshold users see far less USTA intervention than sensitive
	// ones (the paper's a, d, e, i barely noticed it; b at 34.0 °C lives
	// pinned at the minimum OPP).
	var actB, actG int
	for _, row := range res.Rows {
		switch row.UserID {
		case "b":
			actB = row.USTAActivations
		case "g":
			actG = row.USTAActivations
		}
	}
	if actG >= actB {
		t.Fatalf("user g (42.8 °C) saw %d activations vs user b (34.0 °C) %d; want far fewer", actG, actB)
	}
	if !strings.Contains(res.String(), "average") {
		t.Fatal("String() broken")
	}
}

func TestTable1USTAReducesHotWorkloads(t *testing.T) {
	pl := pipeline(t)
	res := RunTable1(pl)
	if len(res.Rows) != 13 {
		t.Fatalf("table1 rows = %d want 13", len(res.Rows))
	}
	// The paper's claim: in all applications where the baseline comes
	// within 2 °C of (or exceeds) the 37 °C limit, USTA reduces the peak.
	for _, row := range res.Rows {
		if row.Baseline.MaxSkinC >= res.LimitC-2+0.8 { // 0.8 °C of slack for jitter
			if row.USTA.MaxSkinC >= row.Baseline.MaxSkinC {
				t.Fatalf("%s: USTA peak %.1f did not improve baseline %.1f",
					row.Bench, row.USTA.MaxSkinC, row.Baseline.MaxSkinC)
			}
		}
	}
	// Skype and AnTuTu Tester must be among the hottest baseline workloads
	// (at full scale they are the top two, as in the paper; the reduced
	// test scale truncates Skype before its 30-min peak, so allow third
	// place for the 45-min soak).
	type peak struct {
		bench string
		v     float64
	}
	peaks := make([]peak, 0, len(res.Rows))
	for _, row := range res.Rows {
		peaks = append(peaks, peak{row.Bench, row.Baseline.MaxSkinC})
	}
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if peaks[j].v > peaks[i].v {
				peaks[i], peaks[j] = peaks[j], peaks[i]
			}
		}
	}
	top3 := map[string]bool{peaks[0].bench: true, peaks[1].bench: true, peaks[2].bench: true}
	if !top3["skype"] || !top3["antutu-tester"] {
		t.Fatalf("hottest three = %v; want skype and antutu-tester among them", peaks[:3])
	}
	if _, ok := res.Row("skype"); !ok {
		t.Fatal("Row lookup broken")
	}
	if !strings.Contains(res.String(), "skype") {
		t.Fatal("String() broken")
	}
}

func TestPaperTable1Embedded(t *testing.T) {
	base, usta, ok := PaperTable1("skype")
	if !ok {
		t.Fatal("paper values for skype missing")
	}
	if base.MaxSkinC != 42.8 || usta.MaxSkinC != 38.7 {
		t.Fatalf("skype paper values wrong: %+v %+v", base, usta)
	}
	if d := base.MaxSkinC - usta.MaxSkinC; d < 4.09 || d > 4.11 {
		t.Fatalf("the published Skype delta must be 4.1 °C, got %v", d)
	}
	if _, _, ok := PaperTable1("nope"); ok {
		t.Fatal("unknown bench should not resolve")
	}
}

// Row returns the named workload's row.
func (r *Table1Result) Row(bench string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Bench == bench {
			return row, true
		}
	}
	return Table1Row{}, false
}
