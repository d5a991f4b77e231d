package core_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	// Dot import: these tests sit in an external package only so that they
	// can also run the wire codec, which imports core.
	. "repro/internal/core"
	"repro/internal/fleet/wire"
	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
	"repro/internal/sensors"
)

func persistCorpus() []sensors.Record {
	recs := make([]sensors.Record, 0, 400)
	for i := 0; i < 400; i++ {
		f := float64(i)
		recs = append(recs, sensors.Record{
			CPUTempC:     30 + f/10,
			BatteryTempC: 26 + f/25,
			Util:         float64(i%10) / 10,
			FreqMHz:      384 + float64(i%12)*100,
			SkinTempC:    26 + f/20,
			ScreenTempC:  25 + f/22,
		})
	}
	return recs
}

func roundTrip(t *testing.T, factory func() ml.Regressor) *Predictor {
	t.Helper()
	p, err := Train(persistCorpus(), factory)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePredictor(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded predictor must agree with the original everywhere we probe.
	probe := persistCorpus()
	for i := 0; i < len(probe); i += 7 {
		r := probe[i]
		if got, want := back.PredictSkin(r), p.PredictSkin(r); got != want {
			t.Fatalf("skin prediction diverged after round trip: %v vs %v", got, want)
		}
		if got, want := back.PredictScreen(r), p.PredictScreen(r); got != want {
			t.Fatalf("screen prediction diverged after round trip: %v vs %v", got, want)
		}
	}
	return back
}

func TestPersistREPTree(t *testing.T) { roundTrip(t, nil) }

// TestSaveRefusesOtherModels: a predictor whose skin or screen model is
// not a REPTree trains, but never becomes a document.
func TestSaveRefusesOtherModels(t *testing.T) {
	reptree, err := Train(persistCorpus(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range map[string]func() ml.Regressor{
		"M5P":                  func() ml.Regressor { return m5p.New() },
		"LinearRegression":     func() ml.Regressor { return linreg.New() },
		"MultilayerPerceptron": func() ml.Regressor { m := mlp.New(3); m.Epochs = 20; return m },
	} {
		p, err := Train(persistCorpus(), factory)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*Predictor{p, {SkinModel: reptree.SkinModel, ScreenModel: p.ScreenModel}} {
			if err := SavePredictor(new(bytes.Buffer), q); !errors.Is(err, ErrNotREPTree) {
				t.Fatalf("%s: SavePredictor = %v; want ErrNotREPTree", name, err)
			}
			if enc, err := wire.EncodePredictor(q); !errors.Is(err, ErrNotREPTree) {
				t.Fatalf("%s: EncodePredictor = %v, %v; want ErrNotREPTree", name, enc, err)
			}
		}
	}
}

func TestSaveRejectsNilPredictor(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePredictor(&buf, nil); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if err := SavePredictor(&buf, &Predictor{}); err == nil {
		t.Fatal("empty predictor accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadPredictor(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"algorithm":"Mystery","skin":{},"screen":{}}`)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"algorithm":"REPTree","skin":{"root":null},"screen":{"root":null}}`)); err == nil {
		t.Fatal("rootless tree accepted")
	}
}

func TestUnfittedModelsRefuseToMarshal(t *testing.T) {
	var buf bytes.Buffer
	p := &Predictor{SkinModel: &tree.Model{}, ScreenModel: &tree.Model{}}
	if err := SavePredictor(&buf, p); err == nil {
		t.Fatal("unfitted REPTree marshalled")
	}
}

// misfitDocs are REPTree documents that decode as JSON but whose trees
// split on features outside sensors.FeatureNames: predicting with either
// of them indexes past the four-feature input.
var misfitDocs = []struct{ name, doc string }{
	{"REPTree split on feature 7",
		`{"algorithm":"REPTree","skin":{"root":{"attr":7,"thr":1,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true},"v":0,"leaf":false}},"screen":{"root":{"v":30,"leaf":true}}}`},
	{"REPTree split on a negative feature",
		`{"algorithm":"REPTree","skin":{"root":{"v":30,"leaf":true}},"screen":{"root":{"attr":-1,"thr":1,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true},"v":0,"leaf":false}}}`},
}

// refusedDocs are documents of the models the paper compares offline but
// never deploys. Well-formed or not, they are refused by their tag.
var refusedDocs = []struct{ name, doc string }{
	{"M5P split on feature 9",
		`{"algorithm":"M5P","skin":{"root":{"attr":9,"thr":1,"l":{"lm":[1,0,0,0,0],"n":3,"leaf":true},"r":{"lm":[1,0,0,0,0],"n":3,"leaf":true},"lm":[1,0,0,0,0],"n":6}},"screen":{"root":{"lm":[30,0,0,0,0],"n":1,"leaf":true}}}`},
	{"M5P leaf model with one term",
		`{"algorithm":"M5P","skin":{"root":{"lm":[30,0,0,0,0],"n":1,"leaf":true}},"screen":{"root":{"lm":[1],"n":1,"leaf":true}}}`},
	{"LinearRegression with one coefficient",
		`{"algorithm":"LinearRegression","skin":{"coef":[1]},"screen":{"coef":[30,0,0,0,0]}}`},
	{"MultilayerPerceptron over five inputs",
		`{"algorithm":"MultilayerPerceptron","skin":{"hidden":1,"w_in":[[0,0,0,0,0,0]],"w_out":[1,0],"in_lo":[0,0,0,0,0],"in_hi":[1,1,1,1,1],"y_lo":20,"y_hi":40},"screen":{"hidden":1,"w_in":[[0,0,0,0,0]],"w_out":[1,0],"in_lo":[0,0,0,0],"in_hi":[1,1,1,1],"y_lo":20,"y_hi":40}}`},
	{"MultilayerPerceptron with a short input range",
		`{"algorithm":"MultilayerPerceptron","skin":{"hidden":1,"w_in":[[0,0,0,0,0]],"w_out":[1,0],"in_lo":[0,0,0,0],"in_hi":[1],"y_lo":20,"y_hi":40},"screen":{"hidden":1,"w_in":[[0,0,0,0,0]],"w_out":[1,0],"in_lo":[0,0,0,0],"in_hi":[1,1,1,1],"y_lo":20,"y_hi":40}}`},
}

// TestLoadRejectsMisfitModels: a document that is not a REPTree pair is
// refused with ErrNotREPTree, and one whose trees do not fit the feature
// tuple with ErrModelShape, by the loader and by the wire decoder every
// worker runs — never handed to a controller whose first prediction
// would panic.
func TestLoadRejectsMisfitModels(t *testing.T) {
	for _, table := range []struct {
		docs []struct{ name, doc string }
		want error
	}{{misfitDocs, ErrModelShape}, {refusedDocs, ErrNotREPTree}} {
		for _, tc := range table.docs {
			t.Run(tc.name, func(t *testing.T) {
				if p, err := LoadPredictor(strings.NewReader(tc.doc)); !errors.Is(err, table.want) {
					t.Fatalf("LoadPredictor = %v, %v; want %v", p, err, table.want)
				}
				if p, err := wire.DecodePredictor([]byte(tc.doc)); !errors.Is(err, table.want) {
					t.Fatalf("wire.DecodePredictor = %v, %v; want %v", p, err, table.want)
				}
			})
		}
	}
}

// FuzzLoadPredictor: arbitrary bytes never panic the loader, and whatever
// it accepts is safe to predict with on any record — zeros, NaN, ±Inf —
// and survives a save/load round trip unchanged.
func FuzzLoadPredictor(f *testing.F) {
	for _, tc := range append(misfitDocs, refusedDocs...) {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		nan, inf := math.NaN(), math.Inf(1)
		for _, r := range []sensors.Record{
			{},
			{CPUTempC: nan, BatteryTempC: nan, Util: nan, FreqMHz: nan},
			{CPUTempC: inf, BatteryTempC: -inf, Util: inf, FreqMHz: -inf},
		} {
			p.PredictSkin(r)
			p.PredictScreen(r)
		}
		var buf bytes.Buffer
		if err := SavePredictor(&buf, p); err != nil {
			t.Fatalf("accepted predictor does not re-encode: %v", err)
		}
		again, err := LoadPredictor(&buf)
		if err != nil {
			t.Fatalf("re-encoded predictor does not load: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatal("save/load round trip changed the predictor")
		}
	})
}
