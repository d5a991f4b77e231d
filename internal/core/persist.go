package core

// Predictor persistence: the paper's deployment story is "train offline in
// WEKA, ship the fitted tree to the phone". SavePredictor/LoadPredictor
// are that hand-off: a single JSON document with an algorithm tag and the
// two fitted per-target models.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/m5p"
	"repro/internal/ml/mlp"
	"repro/internal/ml/tree"
	"repro/internal/sensors"
)

// ErrModelShape marks a decoded model whose feature references do not fit
// the predictor's input tuple (sensors.FeatureNames): predicting with it
// would index past the features. LoadPredictor refuses such documents
// rather than let one crash the process that runs the controller.
var ErrModelShape = errors.New("core: model does not fit the feature tuple")

// persistedModel is a regressor LoadPredictor can decode and check.
type persistedModel interface {
	ml.Regressor
	// CheckInputs reports an error unless Predict is safe on every input
	// of n features.
	CheckInputs(n int) error
}

type persistedPredictor struct {
	Algorithm string          `json:"algorithm"`
	Skin      json.RawMessage `json:"skin"`
	Screen    json.RawMessage `json:"screen"`
}

func algorithmOf(r ml.Regressor) (string, error) {
	switch r.(type) {
	case *tree.Model:
		return "REPTree", nil
	case *m5p.Model:
		return "M5P", nil
	case *linreg.Model:
		return "LinearRegression", nil
	case *mlp.Model:
		return "MultilayerPerceptron", nil
	default:
		return "", fmt.Errorf("core: unsupported regressor type %T", r)
	}
}

func emptyModel(algorithm string) (persistedModel, error) {
	switch algorithm {
	case "REPTree":
		return &tree.Model{}, nil
	case "M5P":
		return &m5p.Model{}, nil
	case "LinearRegression":
		return &linreg.Model{}, nil
	case "MultilayerPerceptron":
		return &mlp.Model{}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", algorithm)
	}
}

// SavePredictor serializes a trained predictor to w. Both per-target models
// must be of the same supported algorithm.
func SavePredictor(w io.Writer, p *Predictor) error {
	if p == nil || p.SkinModel == nil || p.ScreenModel == nil {
		return fmt.Errorf("core: predictor is not fully trained")
	}
	algo, err := algorithmOf(p.SkinModel)
	if err != nil {
		return err
	}
	algo2, err := algorithmOf(p.ScreenModel)
	if err != nil {
		return err
	}
	if algo != algo2 {
		return fmt.Errorf("core: mixed-algorithm predictor (%s skin, %s screen) not supported", algo, algo2)
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
	return enc.Encode(persistedPredictor{Algorithm: algo, Skin: skin, Screen: screen})
}

// LoadPredictor deserializes a predictor saved by SavePredictor. Models
// whose feature references do not fit sensors.FeatureNames fail with an
// error wrapping ErrModelShape.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pp persistedPredictor
	if err := json.NewDecoder(r).Decode(&pp); err != nil {
		return nil, fmt.Errorf("core: decode predictor: %w", err)
	}
	skin, err := emptyModel(pp.Algorithm)
	if err != nil {
		return nil, err
	}
	screen, err := emptyModel(pp.Algorithm)
	if err != nil {
		return nil, err
	}
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
