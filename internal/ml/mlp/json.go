package mlp

// JSON persistence for trained networks.

import (
	"encoding/json"
	"errors"
	"fmt"
)

type jsonModel struct {
	Hidden       int         `json:"hidden"`
	LearningRate float64     `json:"learning_rate"`
	Momentum     float64     `json:"momentum"`
	Epochs       int         `json:"epochs"`
	Seed         int64       `json:"seed"`
	WIn          [][]float64 `json:"w_in"`
	WOut         []float64   `json:"w_out"`
	InLo         []float64   `json:"in_lo"`
	InHi         []float64   `json:"in_hi"`
	YLo          float64     `json:"y_lo"`
	YHi          float64     `json:"y_hi"`
}

// MarshalJSON implements json.Marshaler for a fitted model.
func (m *Model) MarshalJSON() ([]byte, error) {
	if !m.ready {
		return nil, errors.New("mlp: cannot marshal an unfitted model")
	}
	return json.Marshal(jsonModel{
		Hidden: m.Hidden, LearningRate: m.LearningRate, Momentum: m.Momentum,
		Epochs: m.Epochs, Seed: m.Seed,
		WIn: m.wIn, WOut: m.wOut, InLo: m.inLo, InHi: m.inHi,
		YLo: m.yLo, YHi: m.yHi,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	if len(jm.WIn) == 0 || len(jm.WOut) != len(jm.WIn)+1 {
		return errors.New("mlp: serialized weight shapes are inconsistent")
	}
	for _, row := range jm.WIn {
		if len(row) != len(jm.InLo)+1 {
			return errors.New("mlp: serialized input weights do not match normalization range")
		}
	}
	m.Hidden = jm.Hidden
	m.LearningRate = jm.LearningRate
	m.Momentum = jm.Momentum
	m.Epochs = jm.Epochs
	m.Seed = jm.Seed
	m.wIn = jm.WIn
	m.wOut = jm.WOut
	m.inLo = jm.InLo
	m.inHi = jm.InHi
	m.yLo = jm.YLo
	m.yHi = jm.YHi
	m.ready = true
	return nil
}

// CheckInputs reports an error unless Predict is safe on every input of n
// features: the network must normalize exactly n inputs.
func (m *Model) CheckInputs(n int) error {
	if !m.ready {
		return errors.New("mlp: model is not fitted")
	}
	if len(m.inLo) != n || len(m.inHi) != n {
		return fmt.Errorf("mlp: normalization ranges for %d/%d inputs, want %d", len(m.inLo), len(m.inHi), n)
	}
	return nil
}
