package core

// Predictor persistence: the paper's deployment story is "train offline in
// WEKA, ship the fitted tree to the phone". SavePredictor/LoadPredictor
// are that hand-off: a single JSON document with an algorithm tag and the
// two fitted per-target REPTree models.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/sensors"
)

// ErrModelShape marks a decoded model whose feature references do not fit
// the predictor's input tuple (sensors.FeatureNames): predicting with it
// would index past the features. LoadPredictor refuses such documents
// rather than let one crash the process that runs the controller.
var ErrModelShape = errors.New("core: model does not fit the feature tuple")

// ErrNotREPTree marks a predictor whose models are not REPTrees. The paper
// deploys REPTree alone, so a predictor document holds REPTree models
// only: SavePredictor refuses to write any other model and LoadPredictor
// refuses any other algorithm tag. M5P, MLP and linear-regression
// predictors train and drive USTA in-process only.
var ErrNotREPTree = errors.New("core: predictor documents hold REPTree models only")

// reptreeTag is the algorithm tag of every predictor document.
const reptreeTag = "REPTree"

type persistedPredictor struct {
	Algorithm string          `json:"algorithm"`
	Skin      json.RawMessage `json:"skin"`
	Screen    json.RawMessage `json:"screen"`
}

// SavePredictor serializes a trained predictor to w. Both per-target
// models must be REPTrees; any other model fails with an error wrapping
// ErrNotREPTree.
func SavePredictor(w io.Writer, p *Predictor) error {
	if p == nil || p.SkinModel == nil || p.ScreenModel == nil {
		return fmt.Errorf("core: predictor is not fully trained")
	}
	for _, m := range []ml.Regressor{p.SkinModel, p.ScreenModel} {
		if _, ok := m.(*tree.Model); !ok {
			return fmt.Errorf("%w, not %T", ErrNotREPTree, m)
		}
	}
	skin, err := json.Marshal(p.SkinModel)
	if err != nil {
		return fmt.Errorf("core: marshal skin model: %w", err)
	}
	screen, err := json.Marshal(p.ScreenModel)
	if err != nil {
		return fmt.Errorf("core: marshal screen model: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(persistedPredictor{Algorithm: reptreeTag, Skin: skin, Screen: screen})
}

// LoadPredictor deserializes a predictor saved by SavePredictor. A
// document tagged with any algorithm but REPTree fails with an error
// wrapping ErrNotREPTree; trees whose feature references do not fit
// sensors.FeatureNames fail with an error wrapping ErrModelShape.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pp persistedPredictor
	if err := json.NewDecoder(r).Decode(&pp); err != nil {
		return nil, fmt.Errorf("core: decode predictor: %w", err)
	}
	if pp.Algorithm != reptreeTag {
		return nil, fmt.Errorf("%w, not %q", ErrNotREPTree, pp.Algorithm)
	}
	skin, screen := &tree.Model{}, &tree.Model{}
	if err := json.Unmarshal(pp.Skin, skin); err != nil {
		return nil, fmt.Errorf("core: decode skin model: %w", err)
	}
	if err := json.Unmarshal(pp.Screen, screen); err != nil {
		return nil, fmt.Errorf("core: decode screen model: %w", err)
	}
	if err := skin.CheckInputs(len(sensors.FeatureNames)); err != nil {
		return nil, fmt.Errorf("%w: skin model: %v", ErrModelShape, err)
	}
	if err := screen.CheckInputs(len(sensors.FeatureNames)); err != nil {
		return nil, fmt.Errorf("%w: screen model: %v", ErrModelShape, err)
	}
	return &Predictor{SkinModel: skin, ScreenModel: screen}, nil
}
