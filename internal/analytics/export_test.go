package analytics

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (q in [0,1]) of vs by linear
// interpolation between order statistics (the numpy/R type-7 estimator).
// vs need not be sorted; an empty input returns NaN.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}
