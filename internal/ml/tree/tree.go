// Package tree implements REPTree: a fast variance-reduction regression
// tree with reduced-error pruning on a held-out subset, matching the WEKA
// algorithm the paper selects for its run-time predictor ("REPtree builds
// faster than M5P and does not cause halting", §IV-A).
//
// Growing minimizes the summed squared error of the two children over all
// (attribute, threshold) candidates; pruning holds out one fold of the
// training data (default one third) and collapses any subtree whose
// held-out error is no better than predicting its mean.
package tree

import (
	"math"
	"math/rand"

	"repro/internal/ml"
)

// Model is a REPTree regressor. The zero value uses the package defaults at
// Fit time; construct with New for explicit seeding.
type Model struct {
	// MinInstances is the minimum number of training instances in a leaf
	// (default 2, WEKA's -M).
	MinInstances int
	// MaxDepth limits tree depth; 0 or negative means unlimited (WEKA -L).
	MaxDepth int
	// PruneFolds controls reduced-error pruning: one fold in PruneFolds is
	// held out for pruning (default 3, WEKA -N). Set to 1 to disable
	// pruning and grow on all data.
	PruneFolds int
	// Seed drives the grow/prune shuffle.
	Seed int64

	root *node
}

var _ ml.Regressor = (*Model)(nil)

type node struct {
	attr      int
	threshold float64
	left      *node
	right     *node
	value     float64 // mean target of growing instances at this node
	leaf      bool
	n         int
}

// New returns a REPTree with WEKA-like defaults.
func New(seed int64) *Model {
	return &Model{MinInstances: 2, PruneFolds: 3, Seed: seed}
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "REPTree" }

// Fit implements ml.Regressor.
func (m *Model) Fit(d *ml.Dataset) error {
	if d.Len() == 0 {
		return ml.ErrEmptyDataset
	}
	minInst := m.MinInstances
	if minInst < 1 {
		minInst = 2
	}
	folds := m.PruneFolds
	if folds == 0 {
		folds = 3
	}

	growIdx := make([]int, 0, d.Len())
	pruneIdx := make([]int, 0, d.Len()/2)
	if folds > 1 && d.Len() >= 2*folds {
		perm := rand.New(rand.NewSource(m.Seed)).Perm(d.Len())
		for i, p := range perm {
			if i%folds == 0 {
				pruneIdx = append(pruneIdx, p)
			} else {
				growIdx = append(growIdx, p)
			}
		}
	} else {
		for i := 0; i < d.Len(); i++ {
			growIdx = append(growIdx, i)
		}
	}

	g := &grower{d: d, minInst: minInst, maxDepth: m.MaxDepth}
	m.root = g.grow(growIdx, 0)
	if len(pruneIdx) > 0 {
		pruneREP(m.root, d, pruneIdx)
	}
	return nil
}

type grower struct {
	d        *ml.Dataset
	minInst  int
	maxDepth int
}

func meanOf(d *ml.Dataset, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += d.Y[i]
	}
	return s / float64(len(idx))
}

func (g *grower) grow(idx []int, depth int) *node {
	nd := &node{value: meanOf(g.d, idx), n: len(idx), leaf: true}
	if len(idx) < 2*g.minInst {
		return nd
	}
	if g.maxDepth > 0 && depth >= g.maxDepth {
		return nd
	}
	attr, thr, ok := g.bestSplit(idx)
	if !ok {
		return nd
	}
	var left, right []int
	for _, i := range idx {
		if g.d.X[i][attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.minInst || len(right) < g.minInst {
		return nd
	}
	nd.leaf = false
	nd.attr = attr
	nd.threshold = thr
	nd.left = g.grow(left, depth+1)
	nd.right = g.grow(right, depth+1)
	return nd
}

// bestSplit scans every attribute with a sort + prefix-sum sweep, returning
// the (attribute, threshold) pair minimizing the children's summed squared
// error. ok is false when no split separates the data.
func (g *grower) bestSplit(idx []int) (attr int, threshold float64, ok bool) {
	bestSSE := math.Inf(1)
	n := len(idx)
	order := make([]int, n)
	for a := 0; a < g.d.NumAttrs(); a++ {
		copy(order, idx)
		sortByAttr(order, g.d, a)

		// Suffix statistics of the whole node.
		var sumAll, sumSqAll float64
		for _, i := range order {
			sumAll += g.d.Y[i]
			sumSqAll += g.d.Y[i] * g.d.Y[i]
		}
		var sumL, sumSqL float64
		for p := 0; p < n-1; p++ {
			y := g.d.Y[order[p]]
			sumL += y
			sumSqL += y * y
			xCur := g.d.X[order[p]][a]
			xNext := g.d.X[order[p+1]][a]
			if xCur == xNext {
				continue // can only split between distinct values
			}
			if p+1 < g.minInst || n-p-1 < g.minInst {
				continue
			}
			nl := float64(p + 1)
			nr := float64(n - p - 1)
			sumR := sumAll - sumL
			sumSqR := sumSqAll - sumSqL
			sse := (sumSqL - sumL*sumL/nl) + (sumSqR - sumR*sumR/nr)
			if sse < bestSSE {
				bestSSE = sse
				attr = a
				threshold = (xCur + xNext) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

func sortByAttr(order []int, d *ml.Dataset, a int) {
	// Insertion-free: use sort.Slice equivalent via stdlib.
	quickSort(order, func(i, j int) bool { return d.X[i][a] < d.X[j][a] })
}

// quickSort sorts idx with the given less function. Extracted so the hot
// path avoids interface allocations in sort.Slice.
func quickSort(idx []int, less func(a, b int) bool) {
	if len(idx) < 12 {
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		return
	}
	pivot := idx[len(idx)/2]
	lo, hi := 0, len(idx)-1
	for lo <= hi {
		for less(idx[lo], pivot) {
			lo++
		}
		for less(pivot, idx[hi]) {
			hi--
		}
		if lo <= hi {
			idx[lo], idx[hi] = idx[hi], idx[lo]
			lo++
			hi--
		}
	}
	quickSort(idx[:hi+1], less)
	quickSort(idx[lo:], less)
}

// pruneREP performs bottom-up reduced-error pruning: a subtree collapses to
// a leaf when the held-out squared error of its mean is no worse than the
// subtree's. Nodes that receive no pruning instances are left as grown.
// It returns the subtree's held-out SSE after pruning.
func pruneREP(nd *node, d *ml.Dataset, idx []int) float64 {
	sseLeaf := 0.0
	for _, i := range idx {
		diff := d.Y[i] - nd.value
		sseLeaf += diff * diff
	}
	if nd.leaf {
		return sseLeaf
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][nd.attr] <= nd.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	sseSub := pruneREP(nd.left, d, left) + pruneREP(nd.right, d, right)
	if len(idx) > 0 && sseLeaf <= sseSub {
		nd.leaf = true
		nd.left, nd.right = nil, nil
		return sseLeaf
	}
	return sseSub
}

// Predict implements ml.Regressor.
func (m *Model) Predict(x []float64) float64 {
	if m.root == nil {
		panic("tree: Predict before Fit")
	}
	nd := m.root
	for !nd.leaf {
		if x[nd.attr] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.value
}
