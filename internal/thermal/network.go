// Package thermal implements a lumped-parameter (compartmental RC) thermal
// network simulator. It stands in for the physical heat flow of the paper's
// instrumented Google Nexus 4: heat generated in the SoC die, battery and
// display spreads through internal thermal resistances to the back cover and
// screen, which exchange heat with the ambient (and with the user's hand).
//
// An RC network is the standard abstraction for smartphone-scale thermal
// modelling (e.g. Therminator, ISLPED 2014, cited by the paper): each
// physical component is a node with a thermal capacitance (J/K) and a
// temperature, and pairs of nodes are coupled by thermal resistances (K/W).
// Power sources inject heat at nodes; "baths" model isothermal reservoirs
// such as the ambient air or a human palm.
package thermal

import (
	"fmt"
	"math"
)

// NodeID identifies a node within a Network.
type NodeID int

// BathRef identifies an isothermal-bath coupling attached to a node.
type BathRef struct {
	node NodeID
	idx  int
}

type bath struct {
	temp       float64 // bath temperature in °C (ignored if useAmbient)
	g          float64 // conductance in W/K (0 = disconnected)
	useAmbient bool    // track the network-wide ambient temperature
}

type edge struct {
	other NodeID
	g     float64 // conductance in W/K
}

// Network is a thermal RC network. The zero value is not usable; construct
// with NewNetwork.
type Network struct {
	ambient float64 // °C

	names []string
	caps  []float64 // J/K
	temps []float64 // °C
	power []float64 // W injected externally

	adj   [][]edge
	baths [][]bath

	// scratch buffers for the RK4 integrator
	k1, k2, k3, k4, tmp []float64

	// maxStableDt caches the largest internally-safe integration substep;
	// recomputed whenever topology or conductances change.
	maxStableDt float64
	dirty       bool

	// sig fingerprints the conductance configuration (capacitances, edges,
	// baths); props caches exact one-step propagators keyed by (sig, dt) in
	// most-recently-used order, so recurring configurations — e.g. the
	// touching / not-touching pair that ApplyTouch flips between — reuse
	// their precomputed matrices instead of rebuilding on every transition.
	sig      uint64
	props    []*propagator
	forceRK4 bool
}

// NewNetwork creates an empty network with the given ambient temperature in
// degrees Celsius.
func NewNetwork(ambient float64) *Network {
	return &Network{ambient: ambient, dirty: true}
}

// ResetState returns every node to the network ambient temperature and
// clears all injected power, leaving topology, conductances and cached
// propagators untouched. For a network whose nodes were added at the
// ambient (thermal.NewPhone), this is exactly the freshly built state —
// device.Phone.Reset uses it to recycle networks across fleet jobs (bath
// couplings mutated by ApplyTouch are restored by the caller's follow-up
// ApplyTouch(false)).
func (n *Network) ResetState() {
	for i := range n.temps {
		n.temps[i] = n.ambient
		n.power[i] = 0
	}
}

// AddNode adds a node with the given name, thermal capacitance (J/K) and
// initial temperature (°C), returning its identifier.
func (n *Network) AddNode(name string, capacitance, initTemp float64) NodeID {
	if capacitance <= 0 {
		panic(fmt.Sprintf("thermal: node %q needs positive capacitance, got %v", name, capacitance))
	}
	id := NodeID(len(n.names))
	n.names = append(n.names, name)
	n.caps = append(n.caps, capacitance)
	n.temps = append(n.temps, initTemp)
	n.power = append(n.power, 0)
	n.adj = append(n.adj, nil)
	n.baths = append(n.baths, nil)
	n.dirty = true
	return id
}

// Connect couples nodes a and b with a thermal resistance in K/W.
func (n *Network) Connect(a, b NodeID, resistance float64) {
	if a == b {
		panic("thermal: cannot connect a node to itself")
	}
	if resistance <= 0 {
		panic(fmt.Sprintf("thermal: resistance must be positive, got %v", resistance))
	}
	g := 1 / resistance
	n.adj[a] = append(n.adj[a], edge{other: b, g: g})
	n.adj[b] = append(n.adj[b], edge{other: a, g: g})
	n.dirty = true
}

// ConnectAmbient couples node a to the network-wide ambient temperature with
// the given thermal resistance (K/W). The coupling tracks later SetAmbient
// calls.
func (n *Network) ConnectAmbient(a NodeID, resistance float64) BathRef {
	if resistance <= 0 {
		panic(fmt.Sprintf("thermal: resistance must be positive, got %v", resistance))
	}
	n.baths[a] = append(n.baths[a], bath{g: 1 / resistance, useAmbient: true})
	n.dirty = true
	return BathRef{node: a, idx: len(n.baths[a]) - 1}
}

// AddBath couples node a to an isothermal reservoir at the given temperature
// (°C) through the given resistance (K/W). Pass resistance <= 0 to create
// the bath initially disconnected (e.g. a hand that is not yet touching).
func (n *Network) AddBath(a NodeID, temp, resistance float64) BathRef {
	g := 0.0
	if resistance > 0 {
		g = 1 / resistance
	}
	n.baths[a] = append(n.baths[a], bath{temp: temp, g: g})
	n.dirty = true
	return BathRef{node: a, idx: len(n.baths[a]) - 1}
}

// SetBath reconfigures a bath's temperature and resistance. Pass
// resistance <= 0 to disconnect it.
func (n *Network) SetBath(ref BathRef, temp, resistance float64) {
	b := &n.baths[ref.node][ref.idx]
	b.temp = temp
	if resistance > 0 {
		b.g = 1 / resistance
	} else {
		b.g = 0
	}
	b.useAmbient = false
	n.dirty = true
}

// SetBathResistance changes only a bath's resistance, preserving its
// temperature configuration (including ambient tracking). Pass
// resistance <= 0 to disconnect.
func (n *Network) SetBathResistance(ref BathRef, resistance float64) {
	b := &n.baths[ref.node][ref.idx]
	if resistance > 0 {
		b.g = 1 / resistance
	} else {
		b.g = 0
	}
	n.dirty = true
}

// SetPower sets the externally injected power (W) at a node; it replaces any
// previous value.
func (n *Network) SetPower(id NodeID, watts float64) { n.power[id] = watts }

// Temp returns the current temperature (°C) of a node.
func (n *Network) Temp(id NodeID) float64 { return n.temps[id] }

// deriv writes dT/dt for temperatures t into out.
func (n *Network) deriv(t, out []float64) {
	for i := range out {
		q := n.power[i]
		ti := t[i]
		for _, e := range n.adj[i] {
			q += e.g * (t[e.other] - ti)
		}
		for _, b := range n.baths[i] {
			bt := b.temp
			if b.useAmbient {
				bt = n.ambient
			}
			q += b.g * (bt - ti)
		}
		out[i] = q / n.caps[i]
	}
}

// mix64 is the splitmix64 finalizer, used to fingerprint configurations.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// refresh recomputes the stability-limited substep and the configuration
// fingerprint after topology or conductance changes.
func (n *Network) refresh() {
	n.maxStableDt = math.Inf(1)
	sig := mix64(uint64(len(n.caps)))
	for i := range n.caps {
		sig = mix64(sig ^ math.Float64bits(n.caps[i]))
		var g float64
		for _, e := range n.adj[i] {
			g += e.g
			sig = mix64(sig ^ uint64(e.other)<<32 ^ math.Float64bits(e.g))
		}
		for _, b := range n.baths[i] {
			g += b.g
			sig = mix64(sig ^ math.Float64bits(b.g))
			if b.useAmbient {
				sig = mix64(sig ^ 1)
			} else {
				sig = mix64(sig ^ math.Float64bits(b.temp))
			}
		}
		if g <= 0 {
			continue
		}
		// Explicit RK4 is stable for dt < ~2.78·C/G; keep a 4x margin for
		// accuracy as well as stability.
		if tau := n.caps[i] / g; tau/1.5 < n.maxStableDt {
			n.maxStableDt = tau / 1.5
		}
	}
	n.sig = sig
	if math.IsInf(n.maxStableDt, 1) {
		n.maxStableDt = 1 // fully isolated network: any step works
	}
	ln := len(n.caps)
	if cap(n.k1) < ln {
		n.k1 = make([]float64, ln)
		n.k2 = make([]float64, ln)
		n.k3 = make([]float64, ln)
		n.k4 = make([]float64, ln)
		n.tmp = make([]float64, ln)
	}
	n.dirty = false
}

// Fingerprint returns the network's conductance-configuration signature —
// the key the propagator caches and the event engine's ladder cache share.
// Networks built from identical configurations report identical
// fingerprints; any capacitance, edge or bath change produces a new one.
// Refreshes derived state first, so it is not safe to call concurrently
// with Step on the same network.
func (n *Network) Fingerprint() uint64 {
	if n.dirty {
		n.refresh()
	}
	return n.sig
}

// UseRK4 forces subsequent Steps onto the classical RK4 substepping
// integrator instead of the default matrix-exponential propagator. The RK4
// path is the differential-testing oracle and the fallback for callers that
// mutate the network faster than propagators are worth caching for.
func (n *Network) UseRK4(on bool) { n.forceRK4 = on }

// Step advances the network by dt seconds. The transient of an RC network
// is linear time-invariant between configuration changes, so the default
// engine advances it exactly with a cached matrix-exponential propagator
// (one dense mat-vec per step); see propagator.go. UseRK4 selects the
// classical RK4 substepping integrator instead.
func (n *Network) Step(dt float64) {
	if dt <= 0 || len(n.temps) == 0 {
		return
	}
	if n.forceRK4 {
		n.StepRK4(dt)
		return
	}
	if n.dirty {
		n.refresh()
	}
	p := n.propagatorFor(dt)
	if p == nil { // exp failed (degenerate configuration): integrate instead
		n.StepRK4(dt)
		return
	}
	p.advance(n)
}

// StepRK4 advances the network by dt seconds using classical RK4 with
// automatic substepping to remain inside the explicit stability region.
func (n *Network) StepRK4(dt float64) {
	if dt <= 0 {
		return
	}
	if n.dirty {
		n.refresh()
	}
	steps := 1
	if dt > n.maxStableDt {
		steps = int(math.Ceil(dt / n.maxStableDt))
	}
	h := dt / float64(steps)
	ln := len(n.temps)
	for s := 0; s < steps; s++ {
		t := n.temps
		n.deriv(t, n.k1)
		for i := 0; i < ln; i++ {
			n.tmp[i] = t[i] + 0.5*h*n.k1[i]
		}
		n.deriv(n.tmp, n.k2)
		for i := 0; i < ln; i++ {
			n.tmp[i] = t[i] + 0.5*h*n.k2[i]
		}
		n.deriv(n.tmp, n.k3)
		for i := 0; i < ln; i++ {
			n.tmp[i] = t[i] + h*n.k3[i]
		}
		n.deriv(n.tmp, n.k4)
		for i := 0; i < ln; i++ {
			t[i] += h / 6 * (n.k1[i] + 2*n.k2[i] + 2*n.k3[i] + n.k4[i])
		}
	}
}
