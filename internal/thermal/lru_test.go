package thermal

import "testing"

// TestPropLRUBoundAndEviction unit-tests the shared-cache LRU: the bound
// holds, eviction is least-recently-used, and recency refreshes on get.
// put and get go through getOrBuild: a build that returns p inserts it on
// a miss, and a nil build looks a key up without inserting.
func TestPropLRUBoundAndEviction(t *testing.T) {
	c := newLRU[propKey, propagator](3)
	put := func(k propKey, p *propagator) { c.getOrBuild(k, func() *propagator { return p }) }
	get := func(k propKey) *propagator { return c.getOrBuild(k, func() *propagator { return nil }) }
	mk := func(sig uint64) (propKey, *propagator) {
		return propKey{sig: sig, dt: 0.05}, &propagator{sig: sig, dt: 0.05}
	}
	keys := make([]propKey, 5)
	props := make([]*propagator, 5)
	for i := range keys {
		keys[i], props[i] = mk(uint64(i))
	}
	put(keys[0], props[0])
	put(keys[1], props[1])
	put(keys[2], props[2])
	if c.len() != 3 {
		t.Fatalf("len = %d want 3", c.len())
	}
	// Touch 0 so 1 becomes the LRU, then overflow.
	if get(keys[0]) != props[0] {
		t.Fatal("get missed a cached entry")
	}
	put(keys[3], props[3])
	if c.len() != 3 {
		t.Fatalf("len = %d want 3 after eviction", c.len())
	}
	if get(keys[1]) != nil {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if get(keys[i]) != props[i] {
			t.Fatalf("entry %d lost", i)
		}
	}
	// Re-put of an existing key refreshes, never grows.
	put(keys[3], props[3])
	if c.len() != 3 {
		t.Fatalf("len = %d want 3 after refresh", c.len())
	}
	// The verification loop touched 0, 2, 3 in that order, so 0 is now the
	// LRU and the next overflow must evict it.
	put(keys[4], props[4])
	if get(keys[0]) != nil {
		t.Fatal("entry 0 should have been evicted as the LRU")
	}
	for _, i := range []int{2, 3, 4} {
		if get(keys[i]) != props[i] {
			t.Fatalf("entry %d lost after eviction", i)
		}
	}
}

// TestSharedPropagatorCacheStaysBounded sweeps a network through far more
// (configuration, dt) pairs than the cap and checks the process-wide cache
// never exceeds it — the leak a many-device scenario sweep would otherwise
// hit — while the network keeps integrating correctly.
func TestSharedPropagatorCacheStaysBounded(t *testing.T) {
	cfg := DefaultPhoneConfig()
	for i := 0; i < maxSharedPropagators+64; i++ {
		net, nodes := NewPhone(cfg)
		net.SetPower(nodes.Die, 2.0)
		// A distinct dt per iteration forces a fresh cache entry.
		dt := 0.05 + float64(i)*1e-6
		before := net.Temp(nodes.Die)
		for s := 0; s < 3; s++ {
			net.Step(dt)
		}
		if !(net.Temp(nodes.Die) > before) {
			t.Fatalf("iteration %d: die did not heat under power", i)
		}
	}
	if n := sharedProps.len(); n > maxSharedPropagators {
		t.Fatalf("shared cache grew to %d entries, cap is %d", n, maxSharedPropagators)
	}
}

// TestPropLRUGetOrBuild pins the single-critical-section cache API: one
// build per key, hits counted, nil builds not cached.
func TestPropLRUGetOrBuild(t *testing.T) {
	c := newLRU[propKey, propagator](4)
	key := propKey{sig: 99, dt: 0.05}
	builds := 0
	build := func() *propagator { builds++; return &propagator{sig: 99, dt: 0.05} }
	p1 := c.getOrBuild(key, build)
	p2 := c.getOrBuild(key, build)
	if p1 == nil || p1 != p2 {
		t.Fatalf("getOrBuild returned distinct propagators: %p %p", p1, p2)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	hits, misses := c.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// nil builds (degenerate configurations) are not cached: every lookup
	// re-misses so the caller can keep falling back to RK4.
	nilKey := propKey{sig: 100, dt: 0.05}
	nilBuilds := 0
	for i := 0; i < 2; i++ {
		if p := c.getOrBuild(nilKey, func() *propagator { nilBuilds++; return nil }); p != nil {
			t.Fatal("nil build produced a cached propagator")
		}
	}
	if nilBuilds != 2 {
		t.Fatalf("nil build ran %d times, want 2 (never cached)", nilBuilds)
	}
}

// TestPropagatorForHitsSharedCacheOnce pins the fleet-relevant behaviour:
// two networks with identical configurations share one matrix-exponential
// build — the second network's local-cache miss is a shared-cache hit.
func TestPropagatorForHitsSharedCacheOnce(t *testing.T) {
	cfg := DefaultPhoneConfig()
	// A distinctive dt keeps this test's key out of other tests' way.
	const dt = 0.05 + 1e-9
	h0, m0 := sharedProps.stats()
	a, _ := NewPhone(cfg)
	b, _ := NewPhone(cfg)
	a.Step(dt)
	b.Step(dt)
	h1, m1 := sharedProps.stats()
	if m1-m0 != 1 {
		t.Fatalf("shared cache misses = %d, want exactly 1 build for two identical networks", m1-m0)
	}
	if h1-h0 != 1 {
		t.Fatalf("shared cache hits = %d, want exactly 1 (second network reuses the build)", h1-h0)
	}
	// Subsequent steps are served by the per-network MRU: no new shared
	// traffic at all.
	a.Step(dt)
	b.Step(dt)
	h2, m2 := sharedProps.stats()
	if h2 != h1 || m2 != m1 {
		t.Fatalf("per-network MRU bypass failed: shared stats moved %d/%d → %d/%d", h1, m1, h2, m2)
	}
}

// stats reports the getOrBuild hit/miss counts.
func (c *lru[K, V]) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// len reports the current entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
