package thermal

import (
	"math"
	"sync"
	"sync/atomic"
)

// Tap couples a first-order observer state to a network node. The event
// engine uses taps for sensor lag filters: after each tick's thermal
// advance T' = A·T + b, a tap updates its state s' = (1-Alpha)·s +
// Alpha·T'[Node] — exactly the recurrence sensors.Sensor.Advance applies
// at a fixed dt. Folding the taps into the jump matrix is what lets a
// multi-tick jump land with the same lag states a tick-by-tick replay
// would produce (up to float summation order).
type Tap struct {
	Node  NodeID
	Alpha float64
}

// maxLadderLevels bounds the dt ladder: level k jumps 2^k ticks, so eight
// levels decompose any gap into chunks of at most 255 ticks. Segments in
// the event engine are clipped by logger emissions (every 20 ticks at the
// default configuration), so real jumps use the low levels; the headroom
// costs only ~2 KiB per level at phone scale.
const maxLadderLevels = 8

// ladderLevel holds the 2^k-tick jump pair over the augmented state
// z = [temps; tap states]:
//
//	z(t + 2^k·dt) = a·z(t) + j·b̃,   a = Ã^(2^k),  j = Σ_{i<2^k} Ã^i
//
// where Ã is the tap-augmented one-tick map and b̃ the (frozen) one-tick
// drive. Both are dim×dim row-major (j's action on the vector b̃ is all
// the engine needs, but keeping the full matrix makes level doubling a
// pair of mat-mats).
type ladderLevel struct {
	a []float64
	j []float64
}

// Ladder is a precomputed power-of-two jump table for one (configuration
// fingerprint, dt, tap set). It is safe to share across networks and
// goroutines: the levels are immutable after construction, the composite
// memo synchronizes internally, and per-jump state lives in
// LadderScratch.
type Ladder struct {
	sig  uint64
	n    int // thermal nodes
	taps []Tap
	lv   []ladderLevel

	// Input-map rows of the base one-tick propagator, used to freeze the
	// drive vector b for a segment's held power/ambient.
	w      []float64
	vAmb   []float64
	vFixed []float64

	// Memoized fused k-tick propagators, indexed by tick count (see
	// composite). The memo is the only mutable part of a ladder; sharing
	// it across runs is what keeps fleet sweeps from rebuilding the same
	// handful of composites per job, and the flat array keeps the hit
	// path to one atomic load.
	compMu sync.Mutex
	comp   [1 << maxLadderLevels]atomic.Pointer[compositePair]
}

// MaxChunk returns the largest tick count one bit decomposition covers;
// longer jumps are applied in chunks of this size.
func (l *Ladder) MaxChunk() int { return 1<<len(l.lv) - 1 }

// LadderScratch holds one jump's working vectors. A zero value is ready;
// it grows on first use and is reusable (and intended to be reused)
// across jumps and ladders.
type LadderScratch struct {
	z, out, b []float64
	zb        []float64 // stacked [z; p] for the fused composite path
}

func (sc *LadderScratch) ensure(dim int) {
	if cap(sc.z) < dim {
		sc.z = make([]float64, dim)
		sc.out = make([]float64, dim)
		sc.b = make([]float64, dim)
		sc.zb = make([]float64, 2*dim)
	}
	sc.z, sc.out, sc.b = sc.z[:dim], sc.out[:dim], sc.b[:dim]
	sc.zb = sc.zb[:2*dim]
}

// ladderKey identifies a ladder in the shared cache.
type ladderKey struct {
	sig     uint64
	dt      float64
	tapsSig uint64
}

// tapsSig fingerprints a tap set (order-sensitive, like the engine's use).
func tapsSig(taps []Tap) uint64 {
	h := mix64(uint64(len(taps)))
	for _, tp := range taps {
		h = mix64(h ^ uint64(tp.Node)<<32 ^ math.Float64bits(tp.Alpha))
	}
	return h
}

// maxSharedLadders bounds the shared ladder cache. A ladder is ~20 KiB at
// phone scale (12×12 × 2 matrices × 8 levels), so the cap is ~1.3 MiB.
// Real fleets need two per device configuration (touching / not), keyed
// off the same fingerprints as the propagator cache.
const maxSharedLadders = 64

// sharedLadders is the process-wide ladder cache, the event-engine
// counterpart of sharedProps.
var sharedLadders = newLRU[ladderKey, Ladder](maxSharedLadders)

// LadderFor returns the power-of-two jump ladder for the network's current
// conductance configuration, tick dt and tap set, building and caching it
// on first use. It returns nil when the network is forced onto RK4 or the
// underlying propagator cannot be built — callers fall back to
// tick-by-tick stepping (which is also the differential oracle).
func (n *Network) LadderFor(dt float64, taps []Tap) *Ladder {
	if n.forceRK4 || dt <= 0 || len(n.temps) == 0 {
		return nil
	}
	if n.dirty {
		n.refresh()
	}
	key := ladderKey{sig: n.sig, dt: dt, tapsSig: tapsSig(taps)}
	return sharedLadders.getOrBuild(key, func() *Ladder { return n.buildLadder(dt, taps) })
}

// buildLadder assembles the tap-augmented one-tick map from the cached
// base propagator and squares it up the ladder:
//
//	Ã = ⎡ A        0      ⎤    (per tap i, row n+i:
//	    ⎣ αᵢ·A[tᵢ] diag(1-αᵢ) ⎦   s' = (1-αᵢ)s + αᵢ·(A·T + b)[tᵢ])
//
//	a_{k+1} = a_k·a_k,   j_{k+1} = j_k + a_k·j_k,   j_0 = I
func (n *Network) buildLadder(dt float64, taps []Tap) *Ladder {
	base := n.propagatorFor(dt)
	if base == nil {
		return nil
	}
	ln := len(n.caps)
	dim := ln + len(taps)
	l := &Ladder{
		sig:    n.sig,
		n:      ln,
		taps:   append([]Tap(nil), taps...),
		w:      base.w,
		vAmb:   base.vAmb,
		vFixed: base.vFixed,
		lv:     make([]ladderLevel, maxLadderLevels),
	}
	a0 := make([]float64, dim*dim)
	j0 := make([]float64, dim*dim)
	for i := 0; i < ln; i++ {
		copy(a0[i*dim:i*dim+ln], base.a[i*ln:(i+1)*ln])
	}
	for i, tp := range taps {
		r := ln + i
		src := base.a[int(tp.Node)*ln : (int(tp.Node)+1)*ln]
		for c := 0; c < ln; c++ {
			a0[r*dim+c] = tp.Alpha * src[c]
		}
		a0[r*dim+r] = 1 - tp.Alpha
	}
	for i := 0; i < dim; i++ {
		j0[i*dim+i] = 1
	}
	l.lv[0] = ladderLevel{a: a0, j: j0}
	for k := 1; k < maxLadderLevels; k++ {
		prev := l.lv[k-1]
		a := matSquare(prev.a, dim)
		j := matMulAdd(prev.a, prev.j, prev.j, dim)
		l.lv[k] = ladderLevel{a: a, j: j}
	}
	return l
}

// matSquare returns a·a for a dim×dim row-major matrix.
func matSquare(a []float64, dim int) []float64 {
	return matMulAdd(a, a, nil, dim)
}

// matMulAdd returns a·b (+ c when non-nil) for dim×dim row-major matrices.
func matMulAdd(a, b, c []float64, dim int) []float64 {
	out := make([]float64, dim*dim)
	if c != nil {
		copy(out, c)
	}
	for i := 0; i < dim; i++ {
		arow := a[i*dim : (i+1)*dim]
		orow := out[i*dim : (i+1)*dim]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[k*dim : (k+1)*dim]
			for jx, bv := range brow {
				orow[jx] += av * bv
			}
		}
	}
	return out
}

// Advance jumps the network and the tap states forward by ticks base
// steps under held inputs: the current injected power vector and ambient
// are frozen into the drive b̃, and the jump applies one fused matrix pair
// per set bit of the tick count — O(log ticks) dense applications instead
// of ticks of them. states must hold one value per tap (the sensor lag
// states) and is updated in place alongside the network temperatures.
//
// The result matches applying the one-tick propagator (and the tap
// recurrences) ticks times with the same held inputs, up to floating-point
// summation order; it is NOT the tick-by-tick simulation when inputs
// genuinely vary inside the gap — callers own the segmentation.
func (l *Ladder) Advance(net *Network, states []float64, ticks int, sc *LadderScratch) {
	if ticks <= 0 {
		return
	}
	ln, dim := l.n, l.n+len(l.taps)
	sc.ensure(dim)
	l.freeze(net, sc.b)
	z, out := sc.z, sc.out
	copy(z[:ln], net.temps)
	copy(z[ln:], states)
	maxChunk := l.MaxChunk()
	for ticks > 0 {
		chunk := ticks
		if chunk > maxChunk {
			chunk = maxChunk
		}
		ticks -= chunk
		for k := 0; chunk != 0; k, chunk = k+1, chunk>>1 {
			if chunk&1 == 0 {
				continue
			}
			lv := &l.lv[k]
			applyPair(lv.a, lv.j, z, sc.b, out, dim)
			z, out = out, z
		}
	}
	copy(net.temps, z[:ln])
	copy(states, z[ln:])
	sc.z, sc.out = z, out
}

// freeze assembles the held drive vector b̃ for the network's current
// injected power and ambient: b = W·p + ambient·vAmb + vFixed on the
// thermal rows, scaled by alpha on the tap rows.
func (l *Ladder) freeze(net *Network, b []float64) {
	ln := l.n
	pw := net.power
	for i := 0; i < ln; i++ {
		row := l.w[i*ln : (i+1)*ln]
		v := pw[:len(row)]
		acc := net.ambient*l.vAmb[i] + l.vFixed[i]
		var s1 float64
		j := 0
		for ; j+1 < len(row); j += 2 {
			acc += row[j] * v[j]
			s1 += row[j+1] * v[j+1]
		}
		for ; j < len(row); j++ {
			acc += row[j] * v[j]
		}
		b[i] = acc + s1
	}
	for i, tp := range l.taps {
		b[ln+i] = tp.Alpha * b[tp.Node]
	}
}

// applyPair computes out = a·z + j·b for one dim-row propagator pair.
func applyPair(a, j, z, b, out []float64, dim int) {
	for r := 0; r < dim; r++ {
		arow := a[r*dim : (r+1)*dim]
		jrow := j[r*dim : (r+1)*dim]
		var az, jb float64
		for c := 0; c < dim; c++ {
			az += arow[c] * z[c]
			jb += jrow[c] * b[c]
		}
		out[r] = az + jb
	}
}

// compositePair is the fused k-tick jump with the drive assembly folded
// in. Writing the held drive as b̃ = S·(W·p + ambient·vAmb + vFixed)
// (S maps the thermal drive onto the tap-augmented rows), the jump
// z(t+k·dt) = a·z(t) + j·b̃ precomposes into
//
//	out[r] = Σ ( [aT | j·S·W]·[T; p] )[r] + ambient·vAmb[r] + vFix[r]
//	       (+ diag[r-n]·state[r-n] on tap rows)
//
// exploiting the exact block structure of the tap-augmented propagator:
// temperature rows never read tap states, and a tap row's only tap-state
// coefficient is its own decayed diagonal. Packing only the structurally
// nonzero columns makes the hot path one 2n-wide dot product per row
// against the stacked temperature and power vector — no per-segment
// freeze, no multiplies against known zeros.
type compositePair struct {
	m    []float64 // dim×(2n) row-major [a·(thermal cols) | j·S·W]
	diag []float64 // per tap row, its composed self-coefficient Π(1-α)
	vAmb []float64 // j·S·vAmb, length dim
	vFix []float64 // j·S·vFixed, length dim
}

// composite returns the fused k-tick propagator, building and memoizing
// it on first use. Ladders are shared across runs and goroutines, so the
// memo slots are atomic pointers: the hit path (everything after
// warm-up) is a single atomic load; builds serialize on compMu and
// publish exactly one pair per k. k must be in (0, l.MaxChunk()].
func (l *Ladder) composite(k int) *compositePair {
	if p := l.comp[k].Load(); p != nil {
		return p
	}
	l.compMu.Lock()
	defer l.compMu.Unlock()
	if p := l.comp[k].Load(); p != nil {
		return p
	}
	dim := l.n + len(l.taps)
	var a, j []float64
	for lvl, rest := 0, k; rest != 0; lvl, rest = lvl+1, rest>>1 {
		if rest&1 == 0 {
			continue
		}
		lv := &l.lv[lvl]
		if a == nil {
			a = append([]float64(nil), lv.a...)
			j = append([]float64(nil), lv.j...)
			continue
		}
		// Compose the next set bit on top: z' = a_b·(a·z + j·b) + j_b·b,
		// the same LSB-first order Advance applies the levels in.
		a = matMulAdd(lv.a, a, nil, dim)
		j = matMulAdd(lv.a, j, lv.j, dim)
	}
	// Fold the drive assembly in: jS = j·S collapses the tap rows of b̃
	// (alpha-scaled copies of thermal rows) back onto the thermal drive,
	// then the input map W and the ambient/fixed vectors precompose.
	ln := l.n
	jS := make([]float64, dim*ln)
	for r := 0; r < dim; r++ {
		copy(jS[r*ln:(r+1)*ln], j[r*dim:r*dim+ln])
		for i, tp := range l.taps {
			jS[r*ln+int(tp.Node)] += j[r*dim+ln+i] * tp.Alpha
		}
	}
	wide := 2 * ln
	p := &compositePair{
		m:    make([]float64, dim*wide),
		diag: make([]float64, len(l.taps)),
		vAmb: make([]float64, dim),
		vFix: make([]float64, dim),
	}
	for i := range l.taps {
		p.diag[i] = a[(ln+i)*dim+ln+i]
	}
	for r := 0; r < dim; r++ {
		copy(p.m[r*wide:], a[r*dim:r*dim+ln])
		mrow := p.m[r*wide+ln : (r+1)*wide]
		var sa, sf float64
		for c := 0; c < ln; c++ {
			jv := jS[r*ln+c]
			sa += jv * l.vAmb[c]
			sf += jv * l.vFixed[c]
			wrow := l.w[c*ln : (c+1)*ln]
			for q, wv := range wrow {
				mrow[q] += jv * wv
			}
		}
		p.vAmb[r] = sa
		p.vFix[r] = sf
	}
	l.comp[k].Store(p)
	return p
}

// AdvanceComposite is Advance with memoized fused k-tick propagators:
// one dense matrix application per jump instead of one per set bit of
// the tick count. Results match Advance up to floating-point summation
// order (the composite is built by multiplying the same ladder levels
// Advance applies one by one). Jumps longer than MaxChunk fall back to
// Advance's chunked path.
func (l *Ladder) AdvanceComposite(net *Network, states []float64, ticks int, sc *LadderScratch) {
	if ticks <= 0 {
		return
	}
	if ticks > l.MaxChunk() {
		l.Advance(net, states, ticks, sc)
		return
	}
	ln, dim := l.n, l.n+len(l.taps)
	sc.ensure(dim)
	zb, out := sc.zb, sc.out
	copy(zb[:ln], net.temps)
	copy(zb[ln:2*ln], net.power)
	p := l.composite(ticks)
	wide := 2 * ln
	amb := net.ambient
	m, vA, vF, diag := p.m, p.vAmb, p.vFix, p.diag
	if len(out) < dim || len(vA) < dim || len(vF) < dim || len(m) < dim*wide ||
		len(diag) < dim-ln || len(states) < dim-ln {
		panic("thermal: composite shape mismatch")
	}
	if ln == 8 && dim == 12 {
		// Phone-scale kernel: fixed-size array views let the compiler drop
		// every per-element bounds check and slice-header construction in
		// the hot loop (this call dominates event-driven fleet sweeps).
		vz := (*[16]float64)(zb[:16])
		o := (*[12]float64)(out[:12])
		a := (*[12]float64)(vA[:12])
		f := (*[12]float64)(vF[:12])
		for r := 0; r < 12; r++ {
			row := (*[16]float64)(m[r*16 : r*16+16])
			var s0, s1, s2, s3 float64
			for c := 0; c < 16; c += 4 {
				s0 += row[c] * vz[c]
				s1 += row[c+1] * vz[c+1]
				s2 += row[c+2] * vz[c+2]
				s3 += row[c+3] * vz[c+3]
			}
			o[r] = (s0 + s1) + (s2 + s3) + amb*a[r] + f[r]
		}
		for i := 0; i < 4; i++ {
			states[i] = o[8+i] + diag[i]*states[i]
		}
		copy(net.temps, out[:8])
		return
	}
	for r := 0; r < dim; r++ {
		row := m[r*wide : (r+1)*wide]
		v := zb[:len(row)]
		// Four accumulators break the FMA dependency chain; the fixed-size
		// sub-slices let the compiler drop bounds checks, and the split
		// summation is within the documented float-order tolerance.
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+4 <= len(row); c += 4 {
			r4 := row[c : c+4 : c+4]
			v4 := v[c : c+4 : c+4]
			s0 += r4[0] * v4[0]
			s1 += r4[1] * v4[1]
			s2 += r4[2] * v4[2]
			s3 += r4[3] * v4[3]
		}
		for ; c < len(row); c++ {
			s0 += row[c] * v[c]
		}
		out[r] = (s0 + s1) + (s2 + s3) + amb*vA[r] + vF[r]
	}
	for i := 0; i < dim-ln; i++ {
		states[i] = out[ln+i] + diag[i]*states[i]
	}
	copy(net.temps, out[:ln])
}
