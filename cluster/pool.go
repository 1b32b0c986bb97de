package cluster

import "strings"

// poolKey identifies a bucket of interchangeable reusable worlds: clusters
// built from the same machine preset at the same (requested) target count
// differ only in per-replica seeds, which Reset re-derives. What runs on a
// world (one application of any size, or a job mix) is not part of the
// key: Reset rewinds every kernel local and the job registry, so a world
// is reused across process counts and mixes alike.
type poolKey struct {
	machine string
	numOSTs int
}

// Pool hands out reusable simulation worlds. Each runner worker owns one
// Pool (they are not safe for concurrent use), rents a world per replica and
// returns it afterwards. Its only decision is whether to construct or
// reuse: a rental with no returned world of its shape constructs one, and a
// returned world is Reset on the next rental instead of being rebuilt,
// which recycles its process shells, event pool, flow slices and RNG
// streams. Construction ends in the same arming code Reset runs, so both
// give the same bits.
type Pool struct {
	worlds map[poolKey]*Cluster
}

// NewPool creates an empty pool.
func NewPool() *Pool {
	return &Pool{worlds: make(map[poolKey]*Cluster)}
}

// Rent returns a world for the given machine preset and configuration,
// reusing (and Resetting) a previously returned world of the same shape when
// one is available. The caller must hand the world back with Return — also
// on error and cancellation paths, which is why the scenario executors defer
// it immediately. If an available world fails to Reset it is shut down and
// the error returned (the same configuration error a fresh build would hit).
//
//repro:hotpath
func (p *Pool) Rent(machine string, cfg Config) (*Cluster, error) {
	key := poolKey{machine: strings.ToLower(machine), numOSTs: cfg.NumOSTs}
	if c, ok := p.worlds[key]; ok {
		delete(p.worlds, key)
		if err := c.Reset(cfg); err != nil {
			c.Shutdown()
			return nil, err
		}
		return c, nil
	}
	c, err := Preset(machine, cfg)
	if err != nil {
		return nil, err
	}
	c.key = key
	return c, nil
}

// Return hands a rented world back to the pool for reuse. A cluster built
// outside a pool is shut down instead, as is a world whose bucket is
// already occupied. Return(nil)
// is a no-op so error paths can return whatever Rent produced.
//
//repro:hotpath
func (p *Pool) Return(c *Cluster) {
	if c == nil {
		return
	}
	if c.key == (poolKey{}) {
		c.Shutdown()
		return
	}
	if _, occupied := p.worlds[c.key]; occupied {
		c.Shutdown()
		return
	}
	p.worlds[c.key] = c
}

// Close shuts down every pooled world. Call it when the worker is done (the
// runner's per-worker cleanup hook does).
func (p *Pool) Close() {
	for k, c := range p.worlds { //repro:allow nodeterm teardown outside any simulation; shutdown order is immaterial
		c.Shutdown()
		delete(p.worlds, k)
	}
}
