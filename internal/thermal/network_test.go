package thermal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestSingleNodeRelaxesToAmbient(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 10, 60)
	n.ConnectAmbient(a, 5) // tau = 50 s
	for i := 0; i < 600; i++ {
		n.Step(1)
	}
	// After 12 tau the node must be at ambient.
	if got := n.Temp(a); math.Abs(got-25) > 0.01 {
		t.Fatalf("Temp = %v want ≈25", got)
	}
}

func TestSingleNodeExponentialDecayRate(t *testing.T) {
	n := NewNetwork(0)
	a := n.AddNode("a", 10, 100)
	n.ConnectAmbient(a, 5) // tau = C*R = 50 s
	n.Step(50)             // one time constant
	want := 100 * math.Exp(-1)
	if got := n.Temp(a); math.Abs(got-want) > 0.05 {
		t.Fatalf("after one tau Temp = %v want %v", got, want)
	}
}

func TestSteadyStateSingleNodeWithPower(t *testing.T) {
	n := NewNetwork(20)
	a := n.AddNode("a", 10, 20)
	n.ConnectAmbient(a, 4)
	n.SetPower(a, 2) // steady state = ambient + P*R = 28
	ss, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss[a]-28) > 1e-9 {
		t.Fatalf("steady state = %v want 28", ss[a])
	}
	// Transient must converge to the same value.
	for i := 0; i < 1000; i++ {
		n.Step(1)
	}
	if math.Abs(n.Temp(a)-28) > 0.01 {
		t.Fatalf("transient settled at %v want 28", n.Temp(a))
	}
}

func TestTwoNodeHeatFlowsDownhill(t *testing.T) {
	n := NewNetwork(25)
	hot := n.AddNode("hot", 5, 80)
	cold := n.AddNode("cold", 5, 25)
	n.Connect(hot, cold, 2)
	n.ConnectAmbient(cold, 10)
	prevHot := n.Temp(hot)
	for i := 0; i < 50; i++ {
		n.Step(1)
		if n.Temp(hot) > prevHot+1e-9 {
			t.Fatalf("hot node warmed up with no power input at step %d", i)
		}
		prevHot = n.Temp(hot)
		if n.Temp(cold) > n.Temp(hot)+1e-9 {
			t.Fatalf("cold node exceeded hot node at step %d", i)
		}
	}
}

func TestIsolatedPairConservesEnergy(t *testing.T) {
	// Two coupled nodes with no bath: total heat content is invariant.
	n := NewNetwork(25)
	a := n.AddNode("a", 4, 90)
	b := n.AddNode("b", 8, 30)
	n.Connect(a, b, 3)
	before := n.TotalHeatContent()
	for i := 0; i < 200; i++ {
		n.Step(0.5)
	}
	after := n.TotalHeatContent()
	if math.Abs(before-after) > 1e-6*math.Abs(before) {
		t.Fatalf("heat content drifted: %v -> %v", before, after)
	}
	// And both ends converge to the capacitance-weighted mean.
	want := (4*90 + 8*30) / 12.0
	if math.Abs(n.Temp(a)-want) > 0.01 || math.Abs(n.Temp(b)-want) > 0.01 {
		t.Fatalf("converged to %v / %v want %v", n.Temp(a), n.Temp(b), want)
	}
}

func TestSteadyStateMatchesTransient(t *testing.T) {
	n := NewNetwork(22)
	a := n.AddNode("a", 3, 22)
	b := n.AddNode("b", 20, 22)
	c := n.AddNode("c", 40, 22)
	n.Connect(a, b, 2)
	n.Connect(b, c, 3)
	n.ConnectAmbient(c, 8)
	n.SetPower(a, 1.5)
	ss, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		n.Step(1)
	}
	for id := NodeID(0); id < 3; id++ {
		if math.Abs(n.Temp(id)-ss[id]) > 0.02 {
			t.Fatalf("node %d transient %v vs steady %v", id, n.Temp(id), ss[id])
		}
	}
}

func TestSteadyStateErrorWhenNoBath(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 1, 25)
	b := n.AddNode("b", 1, 25)
	n.Connect(a, b, 1)
	n.SetPower(a, 1)
	if _, err := n.SteadyState(); err == nil {
		t.Fatal("expected singular steady state for bath-less powered network")
	}
}

func TestSteadyStateEmptyNetwork(t *testing.T) {
	n := NewNetwork(25)
	if _, err := n.SteadyState(); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestEquilibrate(t *testing.T) {
	n := NewNetwork(30)
	a := n.AddNode("a", 5, 99)
	n.ConnectAmbient(a, 7)
	n.SetPower(a, 1)
	if err := n.Equilibrate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Temp(a)-37) > 1e-9 {
		t.Fatalf("Equilibrate -> %v want 37", n.Temp(a))
	}
}

func TestBathConnectDisconnect(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 10, 25)
	n.ConnectAmbient(a, 10)
	n.SetPower(a, 1)
	ref := n.AddBath(a, 33.5, 0) // disconnected hand
	ss1, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Connect the hand: since hand temp (33.5) < node steady temp (35),
	// the hand should pull the node down.
	n.SetBath(ref, 33.5, 20)
	ss2, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if !(ss2[a] < ss1[a]) {
		t.Fatalf("hand contact should cool a hot node: %v -> %v", ss1[a], ss2[a])
	}
	if ss2[a] < 33.5 {
		t.Fatalf("node cannot be pulled below the warmer of its baths' weighted range: %v", ss2[a])
	}
	// Disconnect again restores the original equilibrium.
	n.SetBath(ref, 33.5, 0)
	ss3, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss3[a]-ss1[a]) > 1e-9 {
		t.Fatalf("disconnect did not restore equilibrium: %v vs %v", ss3[a], ss1[a])
	}
}

func TestSetAmbientShiftsEquilibrium(t *testing.T) {
	n := NewNetwork(20)
	a := n.AddNode("a", 5, 20)
	n.ConnectAmbient(a, 10)
	n.SetPower(a, 0.5)
	ss1, _ := n.SteadyState()
	n.SetAmbient(30)
	ss2, _ := n.SteadyState()
	if math.Abs((ss2[a]-ss1[a])-10) > 1e-9 {
		t.Fatalf("ambient +10 should shift equilibrium by +10, got %v", ss2[a]-ss1[a])
	}
}

func TestStepZeroOrNegativeIsNoop(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 1, 50)
	n.ConnectAmbient(a, 1)
	n.Step(0)
	n.Step(-5)
	if n.Temp(a) != 50 {
		t.Fatalf("no-op step changed temperature to %v", n.Temp(a))
	}
}

func TestLargeStepStability(t *testing.T) {
	// A tiny capacitance next to a big conductance demands substepping;
	// a huge requested dt must not blow up.
	n := NewNetwork(25)
	a := n.AddNode("die", 0.5, 90)
	b := n.AddNode("case", 50, 25)
	n.Connect(a, b, 0.5)
	n.ConnectAmbient(b, 10)
	n.Step(120) // two minutes in one call
	if math.IsNaN(n.Temp(a)) || math.IsInf(n.Temp(a), 0) {
		t.Fatal("integrator blew up")
	}
	if n.Temp(a) < 24 || n.Temp(a) > 90 {
		t.Fatalf("implausible temperature %v", n.Temp(a))
	}
}

func TestLookupAndNames(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("alpha", 1, 25)
	if n.Name(a) != "alpha" {
		t.Fatalf("Name = %q", n.Name(a))
	}
	id, ok := n.Lookup("alpha")
	if !ok || id != a {
		t.Fatalf("Lookup = %v,%v", id, ok)
	}
	if _, ok := n.Lookup("missing"); ok {
		t.Fatal("Lookup found a missing node")
	}
	if n.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
}

func TestTempsCopy(t *testing.T) {
	n := NewNetwork(25)
	n.AddNode("a", 1, 31)
	n.AddNode("b", 1, 32)
	got := n.Temps(nil)
	if len(got) != 2 || got[0] != 31 || got[1] != 32 {
		t.Fatalf("Temps = %v", got)
	}
	got[0] = 99
	if n.Temp(0) != 31 {
		t.Fatal("Temps must return a copy")
	}
}

func TestAddNodePanicsOnNonPositiveCapacitance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(25).AddNode("bad", 0, 25)
}

func TestConnectPanicsOnSelfLoop(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 1, 25)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Connect(a, a, 1)
}

func TestConnectPanicsOnNonPositiveResistance(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 1, 25)
	b := n.AddNode("b", 1, 25)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Connect(a, b, -1)
}

// Property: with zero power, every node's temperature stays within the
// convex hull of initial temperatures and bath temperatures.
func TestTemperatureBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		amb := 15 + rng.Float64()*20
		n := NewNetwork(amb)
		count := 2 + rng.Intn(5)
		lo, hi := amb, amb
		ids := make([]NodeID, count)
		for i := 0; i < count; i++ {
			t0 := 10 + rng.Float64()*80
			ids[i] = n.AddNode("n", 0.5+rng.Float64()*20, t0)
			if t0 < lo {
				lo = t0
			}
			if t0 > hi {
				hi = t0
			}
		}
		// Random spanning-tree-ish topology keeps everything connected.
		for i := 1; i < count; i++ {
			n.Connect(ids[i], ids[rng.Intn(i)], 0.5+rng.Float64()*10)
		}
		n.ConnectAmbient(ids[0], 1+rng.Float64()*10)
		for s := 0; s < 50; s++ {
			n.Step(rng.Float64() * 5)
			for _, id := range ids {
				v := n.Temp(id)
				if v < lo-1e-6 || v > hi+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: steady-state temperatures rise monotonically with injected power.
func TestSteadyStateMonotoneInPowerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork(25)
		a := n.AddNode("a", 1, 25)
		b := n.AddNode("b", 5, 25)
		n.Connect(a, b, 0.5+rng.Float64()*5)
		n.ConnectAmbient(b, 0.5+rng.Float64()*10)
		p1 := rng.Float64() * 3
		p2 := p1 + 0.1 + rng.Float64()*2
		n.SetPower(a, p1)
		s1, err := n.SteadyState()
		if err != nil {
			return false
		}
		n.SetPower(a, p2)
		s2, err := n.SteadyState()
		if err != nil {
			return false
		}
		return s2[a] > s1[a] && s2[b] > s1[b]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMapStaysCurrent(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 1, 25)
	if id, ok := n.Lookup("a"); !ok || id != a {
		t.Fatalf("Lookup(a) = %v %v", id, ok)
	}
	// Adding a node after a lookup must invalidate the index.
	b := n.AddNode("b", 1, 25)
	if id, ok := n.Lookup("b"); !ok || id != b {
		t.Fatalf("Lookup(b) after AddNode = %v %v", id, ok)
	}
	if _, ok := n.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) reported true")
	}
	// Duplicate names resolve to the first registration.
	n.AddNode("a", 1, 25)
	if id, _ := n.Lookup("a"); id != a {
		t.Fatalf("duplicate name resolved to %v, want first node %v", id, a)
	}
}

// The helpers below are test-only Network accessors and the steady-state
// reference solver the transient tests compare against.

// ErrEmpty is returned when an operation needs at least one node.
var ErrEmpty = errors.New("thermal: network has no nodes")

// NumNodes returns the number of nodes in the network.
func (n *Network) NumNodes() int { return len(n.names) }

// Name returns the name a node was registered with.
func (n *Network) Name(id NodeID) string { return n.names[id] }

// Lookup returns the first node registered with the given name.
func (n *Network) Lookup(name string) (NodeID, bool) {
	for i, s := range n.names {
		if s == name {
			return NodeID(i), true
		}
	}
	return -1, false
}

// SetAmbient changes the ambient temperature in °C.
func (n *Network) SetAmbient(t float64) { n.ambient = t }

// Temps copies all node temperatures into dst (allocating if nil) and
// returns it.
func (n *Network) Temps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(n.temps))
	}
	copy(dst, n.temps)
	return dst
}

// SteadyState solves for the equilibrium temperatures under the current
// power injection and bath configuration without altering the transient
// state. It returns one temperature per node.
func (n *Network) SteadyState() ([]float64, error) {
	ln := len(n.temps)
	if ln == 0 {
		return nil, ErrEmpty
	}
	a := mat.NewDense(ln, ln)
	b := make([]float64, ln)
	for i := 0; i < ln; i++ {
		var diag float64
		for _, e := range n.adj[i] {
			diag += e.g
			a.Set(i, int(e.other), a.At(i, int(e.other))-e.g)
		}
		rhs := n.power[i]
		for _, bt := range n.baths[i] {
			diag += bt.g
			temp := bt.temp
			if bt.useAmbient {
				temp = n.ambient
			}
			rhs += bt.g * temp
		}
		a.Set(i, i, a.At(i, i)+diag)
		b[i] = rhs
	}
	x, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("thermal: steady state has no unique solution (is every island coupled to a bath?): %w", err)
	}
	return x, nil
}

// Equilibrate sets every node temperature to its steady-state value for the
// current configuration. It is the canonical way to initialise a simulation
// "soaked" at ambient: zero the powers, call Equilibrate, restore powers.
func (n *Network) Equilibrate() error {
	t, err := n.SteadyState()
	if err != nil {
		return err
	}
	copy(n.temps, t)
	return nil
}

// TotalHeatContent returns Σ C_i·T_i in joules relative to 0 °C. Useful for
// energy-balance checks in tests.
func (n *Network) TotalHeatContent() float64 {
	var s float64
	for i, c := range n.caps {
		s += c * n.temps[i]
	}
	return s
}
