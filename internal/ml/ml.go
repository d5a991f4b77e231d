// Package ml is the from-scratch machine-learning framework standing in for
// WEKA in the reproduction. It provides the dataset container, the
// Regressor interface implemented by the four algorithms the paper
// evaluates (linear regression, multilayer perceptron, M5P, REPTree), the
// 10-fold cross-validation protocol, and the paper's evaluation metrics —
// most importantly Eq. 1's percentage error rate:
//
//	error rate = |expected − predicted| / expected × 100
//
// averaged over all cross-validation predictions, plus the "ignore
// differences below 1 °C" gated variant discussed in §IV-A.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a supervised regression dataset: one float feature vector and
// one target per instance.
type Dataset struct {
	// AttrNames names the feature columns.
	AttrNames []string
	// X holds one feature vector per instance.
	X [][]float64
	// Y holds one target per instance.
	Y []float64
}

// NewDataset creates an empty dataset with the given feature names.
func NewDataset(attrNames ...string) *Dataset {
	return &Dataset{AttrNames: attrNames}
}

// Add appends an instance. It panics if the feature vector width does not
// match the declared attributes — that is always a pipeline bug.
func (d *Dataset) Add(x []float64, y float64) {
	if len(x) != len(d.AttrNames) {
		panic(fmt.Sprintf("ml: instance has %d features, dataset declares %d", len(x), len(d.AttrNames)))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// NumAttrs returns the number of features.
func (d *Dataset) NumAttrs() int { return len(d.AttrNames) }

// Subset returns a dataset containing the instances at the given indices.
// Feature slices are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{AttrNames: d.AttrNames, X: make([][]float64, 0, len(idx)), Y: make([]float64, 0, len(idx))}
	for _, i := range idx {
		s.X = append(s.X, d.X[i])
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// TargetStats returns the mean and population standard deviation of Y.
func (d *Dataset) TargetStats() (mean, std float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	for _, y := range d.Y {
		mean += y
	}
	mean /= float64(d.Len())
	for _, y := range d.Y {
		diff := y - mean
		std += diff * diff
	}
	std = math.Sqrt(std / float64(d.Len()))
	return mean, std
}

// Regressor is a trainable single-target regression model.
type Regressor interface {
	// Name identifies the algorithm in reports ("REPTree", "M5P", ...).
	Name() string
	// Fit trains the model on the dataset.
	Fit(d *Dataset) error
	// Predict returns the model output for one feature vector. Calling
	// Predict before a successful Fit is a programming error and may panic.
	Predict(x []float64) float64
}

// ErrEmptyDataset is returned by Fit implementations given no instances.
var ErrEmptyDataset = errors.New("ml: empty dataset")

// CrossValidate runs k-fold cross-validation: the dataset is shuffled with
// the seed, split into k folds, and each fold is predicted by a model
// trained on the other k−1. It returns (expected, predicted) pairs aligned
// with each other (in shuffled order).
func CrossValidate(factory func() Regressor, d *Dataset, k int, seed int64) (expected, predicted []float64, err error) {
	n := d.Len()
	if n == 0 {
		return nil, nil, ErrEmptyDataset
	}
	if k < 2 {
		return nil, nil, fmt.Errorf("ml: cross-validation needs k >= 2, got %d", k)
	}
	if k > n {
		k = n
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	for fi, test := range folds {
		var trainIdx []int
		for fj, f := range folds {
			if fj != fi {
				trainIdx = append(trainIdx, f...)
			}
		}
		m := factory()
		if err := m.Fit(d.Subset(trainIdx)); err != nil {
			return nil, nil, fmt.Errorf("ml: fold %d: %w", fi, err)
		}
		for _, ti := range test {
			expected = append(expected, d.Y[ti])
			predicted = append(predicted, m.Predict(d.X[ti]))
		}
	}
	return expected, predicted, nil
}

// ErrorRate is the paper's Eq. 1 averaged over all predictions:
// mean(|expected − predicted| / expected) × 100. Instances with an expected
// value of zero are skipped (the metric is undefined there; temperatures in
// °C never hit exactly zero in practice).
func ErrorRate(expected, predicted []float64) float64 {
	var sum float64
	n := 0
	for i := range expected {
		if expected[i] == 0 {
			continue
		}
		sum += math.Abs(expected[i]-predicted[i]) / math.Abs(expected[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}

// GatedErrorRate is ErrorRate with absolute errors below gate treated as
// zero — the paper's "ignore temperature differences less than 1 °C, as
// humans are less sensitive in that range" variant (§IV-A).
func GatedErrorRate(expected, predicted []float64, gate float64) float64 {
	var sum float64
	n := 0
	for i := range expected {
		if expected[i] == 0 {
			continue
		}
		if diff := math.Abs(expected[i] - predicted[i]); diff >= gate {
			sum += diff / math.Abs(expected[i])
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}

// MAE returns the mean absolute error.
func MAE(expected, predicted []float64) float64 {
	if len(expected) == 0 {
		return 0
	}
	var s float64
	for i := range expected {
		s += math.Abs(expected[i] - predicted[i])
	}
	return s / float64(len(expected))
}

// RMSE returns the root mean squared error.
func RMSE(expected, predicted []float64) float64 {
	if len(expected) == 0 {
		return 0
	}
	var s float64
	for i := range expected {
		d := expected[i] - predicted[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(expected)))
}

// R2 returns the coefficient of determination (1 − SSres/SStot); 1 is a
// perfect fit, 0 matches predicting the mean.
func R2(expected, predicted []float64) float64 {
	if len(expected) == 0 {
		return 0
	}
	var mean float64
	for _, e := range expected {
		mean += e
	}
	mean /= float64(len(expected))
	var ssRes, ssTot float64
	for i := range expected {
		r := expected[i] - predicted[i]
		t := expected[i] - mean
		ssRes += r * r
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
