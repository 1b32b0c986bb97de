package cluster

import (
	"os"
	"strings"
)

// poolKey identifies a bucket of interchangeable reusable worlds: clusters
// built from the same machine preset at the same (requested) target count
// for the same application shape differ only in per-replica seeds, which
// Reset re-derives. The shape component (Config.WorldShape, empty for
// single-application runs) keeps job-mix worlds from ever being reused for
// a different mix.
type poolKey struct {
	machine string
	numOSTs int
	shape   string
}

// Pool hands out reusable simulation worlds. Each runner worker owns one
// Pool (they are not safe for concurrent use), rents a world per replica and
// returns it afterwards; a returned world is Reset on the next rent instead
// of being rebuilt, which recycles its process shells, event pool, flow
// records and RNG streams.
//
// A nil *Pool is valid and means "reuse disabled": Rent builds a fresh world
// and Return shuts it down, which is the REPRO_NO_REUSE escape hatch and the
// sequential fallback rolled into one code path.
type Pool struct {
	worlds map[poolKey]*Cluster
}

// NewPool creates an empty pool, or returns nil (reuse disabled) when the
// REPRO_NO_REUSE environment variable is set to a non-empty value.
func NewPool() *Pool {
	if os.Getenv("REPRO_NO_REUSE") != "" {
		return nil
	}
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
	if p == nil {
		return Preset(machine, cfg)
	}
	key := poolKey{machine: strings.ToLower(machine), numOSTs: cfg.NumOSTs, shape: cfg.WorldShape}
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

// Return hands a rented world back to the pool for reuse. Worlds that did
// not come from a live pool (nil pool, or a cluster built directly) are shut
// down instead, as is a world whose bucket is already occupied. Return(nil)
// is a no-op so error paths can return whatever Rent produced.
//
//repro:hotpath
func (p *Pool) Return(c *Cluster) {
	if c == nil {
		return
	}
	if p == nil || c.key == (poolKey{}) {
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
	if p == nil {
		return
	}
	for k, c := range p.worlds { //repro:allow nodeterm teardown outside any simulation; shutdown order is immaterial
		c.Shutdown()
		delete(p.worlds, k)
	}
}
