package m5p

// JSON persistence for trained model trees (see tree/json.go for the
// rationale).

import (
	"encoding/json"
	"errors"
	"fmt"
)

type jsonNode struct {
	Attr      int       `json:"attr,omitempty"`
	Threshold float64   `json:"thr,omitempty"`
	Left      *jsonNode `json:"l,omitempty"`
	Right     *jsonNode `json:"r,omitempty"`
	LM        []float64 `json:"lm"`
	N         int       `json:"n"`
	Leaf      bool      `json:"leaf"`
}

type jsonModel struct {
	MinInstances int       `json:"min_instances"`
	SmoothingK   float64   `json:"smoothing_k"`
	Unsmoothed   bool      `json:"unsmoothed"`
	SDRStopRatio float64   `json:"sdr_stop_ratio"`
	NumAttrs     int       `json:"num_attrs"`
	Root         *jsonNode `json:"root"`
}

func toJSONNode(nd *node) *jsonNode {
	if nd == nil {
		return nil
	}
	return &jsonNode{
		Attr: nd.attr, Threshold: nd.threshold,
		Left: toJSONNode(nd.left), Right: toJSONNode(nd.right),
		LM: nd.lm, N: nd.n, Leaf: nd.leaf,
	}
}

func fromJSONNode(jn *jsonNode) (*node, error) {
	if jn == nil {
		return nil, nil
	}
	if len(jn.LM) == 0 {
		return nil, errors.New("m5p: serialized node has no linear model")
	}
	nd := &node{attr: jn.Attr, threshold: jn.Threshold, lm: jn.LM, n: jn.N, leaf: jn.Leaf}
	if !nd.leaf {
		var err error
		if nd.left, err = fromJSONNode(jn.Left); err != nil {
			return nil, err
		}
		if nd.right, err = fromJSONNode(jn.Right); err != nil {
			return nil, err
		}
		if nd.left == nil || nd.right == nil {
			return nil, errors.New("m5p: interior node missing a child")
		}
	}
	return nd, nil
}

// MarshalJSON implements json.Marshaler for a fitted model.
func (m *Model) MarshalJSON() ([]byte, error) {
	if m.root == nil {
		return nil, errors.New("m5p: cannot marshal an unfitted model")
	}
	return json.Marshal(jsonModel{
		MinInstances: m.MinInstances, SmoothingK: m.SmoothingK,
		Unsmoothed: m.Unsmoothed, SDRStopRatio: m.SDRStopRatio,
		NumAttrs: m.numAttrs, Root: toJSONNode(m.root),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	if jm.Root == nil {
		return errors.New("m5p: serialized model has no root")
	}
	root, err := fromJSONNode(jm.Root)
	if err != nil {
		return err
	}
	m.MinInstances = jm.MinInstances
	m.SmoothingK = jm.SmoothingK
	m.Unsmoothed = jm.Unsmoothed
	m.SDRStopRatio = jm.SDRStopRatio
	m.numAttrs = jm.NumAttrs
	m.root = root
	return nil
}

// CheckInputs reports an error unless Predict is safe on every input of n
// features: each split must read a feature index in [0, n), and every
// node's linear model — smoothing evaluates interior ones too — must carry
// an intercept plus exactly n coefficients.
func (m *Model) CheckInputs(n int) error {
	if m.root == nil {
		return errors.New("m5p: model is not fitted")
	}
	return checkNode(m.root, n)
}

func checkNode(nd *node, n int) error {
	if len(nd.lm) != n+1 {
		return fmt.Errorf("m5p: linear model of %d terms for a %d-feature input", len(nd.lm), n)
	}
	if nd.leaf {
		return nil
	}
	if nd.attr < 0 || nd.attr >= n {
		return fmt.Errorf("m5p: split on feature %d of a %d-feature input", nd.attr, n)
	}
	if err := checkNode(nd.left, n); err != nil {
		return err
	}
	return checkNode(nd.right, n)
}
