package thermal

import "repro/internal/mat"

// maxCachedPropagators bounds the per-network propagator cache. Simulated
// runs alternate between a handful of configurations (touching / not
// touching, occasionally a re-fitted conductance set), so a short MRU list
// captures effectively all transitions.
const maxCachedPropagators = 8

// propagator is the exact one-step advance map of the network's linear
// time-invariant transient for a fixed conductance configuration and step
// size:
//
//	T(t+dt) = A·T(t) + W·P + ambient·vAmb + vFixed
//
// where A = exp(M·dt) for the generator M = C⁻¹·(−G) and
// W = (∫₀^dt exp(M·s) ds)·C⁻¹ is the zero-order-hold input map. Power and
// bath temperatures are held constant across the step — the same
// assumption the per-tick RK4 integration makes — so the advance is exact
// for piecewise-constant inputs. Ambient changes stay free: the
// ambient-tracking bath term is kept factored as ambient·vAmb.
type propagator struct {
	sig uint64
	dt  float64

	a      []float64 // n×n row-major exp(M·dt)
	w      []float64 // n×n row-major ZOH input map (includes C⁻¹)
	vAmb   []float64 // W · (per-node ambient-tracking bath conductance)
	vFixed []float64 // W · (per-node Σ g_b·T_b over fixed-temperature baths)
}

type propKey struct {
	sig uint64
	dt  float64
}

// maxSharedPropagators bounds the shared cache with LRU eviction. Real
// fleets cycle through a handful of configurations per device; the bound
// guards scenario sweeps over many devices/ambients and randomized-dt test
// workloads, which would otherwise grow the cache for the life of the
// process. Each 8-node propagator is ~1 KiB, so the cap is ~0.5 MiB.
const maxSharedPropagators = 512

// sharedProps is the process-wide propagator cache. Fleet runs build one
// Network per job from identical configurations; sharing the finished
// (immutable) propagators across networks means each distinct
// (configuration, dt) pair pays the matrix exponential exactly once per
// process instead of once per job.
var sharedProps = newLRU[propKey, propagator](maxSharedPropagators)

// propagatorFor returns the cached propagator for the current configuration
// fingerprint and step size, building (and caching) it on a miss. The hit
// is moved to the front so recurring configurations stay O(1). It returns
// nil if the matrix exponential cannot be computed; callers fall back to
// RK4.
func (n *Network) propagatorFor(dt float64) *propagator {
	for i, p := range n.props {
		if p.sig == n.sig && p.dt == dt {
			if i != 0 {
				copy(n.props[1:i+1], n.props[:i])
				n.props[0] = p
			}
			return p
		}
	}
	key := propKey{sig: n.sig, dt: dt}
	p := sharedProps.getOrBuild(key, func() *propagator { return n.buildPropagator(dt) })
	if p == nil {
		return nil
	}
	if len(n.props) < maxCachedPropagators {
		n.props = append(n.props, nil)
	}
	copy(n.props[1:], n.props)
	n.props[0] = p
	return p
}

// buildPropagator computes the exponential propagator for the current
// configuration via scaling-and-squaring on the augmented generator
//
//	exp([[M·dt, I·dt], [0, 0]]) = [[A, S], [0, I]],  S = ∫₀^dt exp(M·s) ds
//
// which yields the state map and the input integral in one call.
func (n *Network) buildPropagator(dt float64) *propagator {
	ln := len(n.caps)
	aug := mat.NewDense(2*ln, 2*ln)
	for i := 0; i < ln; i++ {
		ci := n.caps[i]
		var gsum float64
		for _, e := range n.adj[i] {
			gsum += e.g
			aug.Set(i, int(e.other), aug.At(i, int(e.other))+e.g*dt/ci)
		}
		for _, b := range n.baths[i] {
			gsum += b.g
		}
		aug.Set(i, i, aug.At(i, i)-gsum*dt/ci)
		aug.Set(i, ln+i, dt)
	}
	e, err := mat.Exp(aug)
	if err != nil {
		return nil
	}
	p := &propagator{
		sig:    n.sig,
		dt:     dt,
		a:      make([]float64, ln*ln),
		w:      make([]float64, ln*ln),
		vAmb:   make([]float64, ln),
		vFixed: make([]float64, ln),
	}
	for i := 0; i < ln; i++ {
		for j := 0; j < ln; j++ {
			p.a[i*ln+j] = e.At(i, j)
			p.w[i*ln+j] = e.At(i, ln+j) / n.caps[j]
		}
	}
	// Split the bath drive into an ambient-tracking part (recombined with
	// the live ambient every step) and a fixed part folded in up front.
	gAmb := make([]float64, ln)
	fixed := make([]float64, ln)
	for i := 0; i < ln; i++ {
		for _, b := range n.baths[i] {
			if b.useAmbient {
				gAmb[i] += b.g
			} else {
				fixed[i] += b.g * b.temp
			}
		}
	}
	for i := 0; i < ln; i++ {
		row := p.w[i*ln : (i+1)*ln]
		var va, vf float64
		for j, wv := range row {
			va += wv * gAmb[j]
			vf += wv * fixed[j]
		}
		p.vAmb[i] = va
		p.vFixed[i] = vf
	}
	return p
}

// advance applies the propagator to the network state: one fused dense
// mat-vec over the temperatures and the power vector (mat.MulAddVec). The
// state and scratch slices are swapped instead of copied.
func (p *propagator) advance(n *Network) {
	temps, out := n.temps, n.tmp
	mat.MulAddVec(len(temps), p.a, p.w, p.vAmb, p.vFixed, n.ambient, temps, n.power, out)
	n.temps, n.tmp = out, temps
}
