package fleet

import (
	"sync"

	"repro/internal/device"
)

// phonePool recycles device.Phone allocations across the jobs of one batch.
// Phone construction costs ~30 KB (thermal network, SoC, pack, four seeded
// sensors) per job; population sweeps run thousands of jobs over a handful
// of device configurations, so almost every job can reuse a phone built by
// an earlier one. Pools are keyed by the Job.Device pointer — jobs sharing
// a config value but not the pointer simply get separate pools — with nil
// keying the default configuration. Reuse is invisible to results:
// device.Phone.Reset restores a phone to a state byte-identical to fresh
// construction (the device tests pin that equivalence).
type phonePool struct {
	mu    sync.Mutex
	byCfg map[*device.Config]*sync.Pool
}

// newPhonePool creates an empty pool for one batch. Scoping the pool to a
// batch (not the process) keeps the Job.Device key pointers live only as
// long as the batch that handed them out.
func newPhonePool() *phonePool {
	return &phonePool{byCfg: make(map[*device.Config]*sync.Pool)}
}

// get returns a previously pooled phone for the config key, or nil when the
// caller must construct one. A returned phone holds the state of its last
// run; callers must Reset it before use.
func (p *phonePool) get(key *device.Config) *device.Phone {
	p.mu.Lock()
	sp := p.byCfg[key]
	p.mu.Unlock()
	if sp == nil {
		return nil
	}
	ph, _ := sp.Get().(*device.Phone)
	return ph
}

// put returns a phone to the config key's pool.
func (p *phonePool) put(key *device.Config, ph *device.Phone) {
	if ph == nil {
		return
	}
	p.mu.Lock()
	sp := p.byCfg[key]
	if sp == nil {
		sp = &sync.Pool{}
		p.byCfg[key] = sp
	}
	p.mu.Unlock()
	sp.Put(ph)
}
