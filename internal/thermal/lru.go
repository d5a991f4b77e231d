package thermal

import (
	"container/list"
	"sync"
)

// lru is a size-capped LRU map of immutable values built on demand; it
// backs the process-wide propagator and ladder caches. The lock guards
// only the map and recency list. Shared-cache traffic is rare — each
// Network front-runs it with its own MRU slice, each event run with its
// own ladder memo — so a single mutex (recency updates happen on reads
// too) costs nothing measurable.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	m     map[K]*list.Element
	order *list.List // front = most recently used

	// hits/misses count getOrBuild outcomes (guarded by mu); the cache-hit
	// unit tests read them.
	hits, misses uint64
}

// lruEntry is one recency-list element payload.
type lruEntry[K comparable, V any] struct {
	key K
	v   *V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, m: make(map[K]*list.Element), order: list.New()}
}

// getOrBuild returns the cached value for key, building and caching it via
// build on a miss — one critical section for the whole
// lookup-miss-insert sequence, so two callers racing on the same key never
// build twice. build runs under the lock; that is deliberate: builds are
// rare (once per configuration per process) and serializing them is what
// provides the dedup. A nil build result (degenerate configuration) is not
// cached, so callers retry — and fall back to RK4 or tick stepping — on
// every miss.
func (c *lru[K, V]) getOrBuild(key K, build func() *V) *V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.m[key]; el != nil {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(lruEntry[K, V]).v
	}
	c.misses++
	v := build()
	if v == nil {
		return nil
	}
	c.m[key] = c.order.PushFront(lruEntry[K, V]{key: key, v: v})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.m, oldest.Value.(lruEntry[K, V]).key)
	}
	return v
}
