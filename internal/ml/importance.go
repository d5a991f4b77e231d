package ml

// Permutation feature importance: how much does a fitted model's error grow
// when one feature column is shuffled? This quantifies which observables
// actually carry the skin-temperature signal — on the paper's feature
// tuple it shows the battery temperature dominating (it is physically
// adjacent to the back cover), with CPU temperature, frequency and
// utilization refining the transient.

import "math/rand"

// Importance is one feature's permutation score.
type Importance struct {
	Attr string
	// BaseMAE is the unpermuted error, PermMAE the error with this feature
	// shuffled; Increase = PermMAE − BaseMAE (bigger = more important).
	BaseMAE, PermMAE, Increase float64
}

// PermutationImportance evaluates a fitted model on d and returns one
// Importance per attribute, in attribute order. The model is not refit;
// predictions use a shuffled copy of each column in turn.
func PermutationImportance(m Regressor, d *Dataset, seed int64) ([]Importance, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	base := 0.0
	for i, x := range d.X {
		diff := m.Predict(x) - d.Y[i]
		if diff < 0 {
			diff = -diff
		}
		base += diff
	}
	base /= float64(d.Len())

	out := make([]Importance, d.NumAttrs())
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, d.NumAttrs())
	for a := 0; a < d.NumAttrs(); a++ {
		perm := rng.Perm(d.Len())
		var mae float64
		for i, x := range d.X {
			copy(row, x)
			row[a] = d.X[perm[i]][a]
			diff := m.Predict(row) - d.Y[i]
			if diff < 0 {
				diff = -diff
			}
			mae += diff
		}
		mae /= float64(d.Len())
		out[a] = Importance{
			Attr:    d.AttrNames[a],
			BaseMAE: base, PermMAE: mae, Increase: mae - base,
		}
	}
	return out, nil
}
