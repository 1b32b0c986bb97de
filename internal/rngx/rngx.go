// Package rngx provides deterministic random-number streams and the
// distributions used by the storage and interference models: exponential
// inter-arrival times, lognormal service variation, bounded Pareto bursts,
// and Markov-modulated on/off load processes.
//
// Every stochastic component in the simulator draws from its own named
// stream derived from a master seed, so adding a new consumer never perturbs
// the draws seen by existing ones (the classic substream discipline from
// simulation practice).
package rngx

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distribution helpers the simulator needs.
type Source struct {
	r *rand.Rand
}

// New creates a stream from a raw seed. The underlying generator is a
// bit-exact reimplementation of math/rand's source that expands its seed
// lazily, one register word per first read (see alfg.go); the draws are
// identical to rand.NewSource's.
func New(seed int64) *Source {
	return &Source{r: rand.New(newAlfg(seed))}
}

// NewNamed derives an independent stream from a master seed and a name.
// The same (seed, name) pair always yields the same stream.
func NewNamed(seed int64, name string) *Source {
	return New(seed ^ int64(fnv64a(name)))
}

// Reseed re-initialises the stream in place to the exact state New(seed)
// produces. It allocates nothing and expands no register word up front,
// which is what lets reused simulation worlds re-arm their streams per
// replica without rebuilding them.
func (s *Source) Reseed(seed int64) { s.r.Seed(seed) }

// ReseedNamed is Reseed with NewNamed's seed/name mixing: the stream ends
// in the exact state NewNamed(seed, name) produces.
func (s *Source) ReseedNamed(seed int64, name string) {
	s.r.Seed(seed ^ int64(fnv64a(name)))
}

// fnv64a is hash/fnv's 64-bit FNV-1a over a string, inlined so name-keyed
// stream derivation does not allocate a hasher (equivalence with hash/fnv
// is pinned by TestFNV64aMatchesStdlib).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood): a bijective
// avalanche mix in which every input bit affects roughly half the output
// bits. It is the standard tool for turning structured counters into
// well-spread seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed maps a master seed plus an ordered list of labels (driver name,
// grid-point coordinates, sample index, ...) to a replica seed. Each label is
// hashed independently and folded into a SplitMix64 chain, so nearby label
// tuples — consecutive sample indices, permuted coordinates, or tuples whose
// concatenations coincide — land on unrelated seeds. This replaces ad-hoc
// affine formulas like seed + s*7907 + procs*3, whose images collide as soon
// as two terms trade multiples of a shared factor.
func DeriveSeed(master int64, labels ...string) int64 {
	z := splitmix64(uint64(master))
	for _, l := range labels {
		// Hashing labels separately (rather than concatenating) keeps
		// ("ab","c") and ("a","bc") on different chains; the sequential
		// mixing makes label order significant.
		z = splitmix64(z ^ fnv64a(l))
	}
	return int64(z)
}

// Derive creates a child stream keyed by name, independent of the parent's
// future draws.
func (s *Source) Derive(name string) *Source {
	return NewNamed(s.r.Int63(), name)
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a draw uniform in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential draw with the given mean (mean must be > 0).
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rngx: exponential mean must be positive")
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Lognormal returns a draw whose logarithm is Normal(mu, sigma). Note the
// parameters are of the underlying normal, not the resulting distribution.
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LognormalMeanCV returns a lognormal draw parameterised by its own mean and
// coefficient of variation (stddev/mean), which is the natural way to
// calibrate service-time noise against measured CoV values.
func (s *Source) LognormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		panic("rngx: lognormal mean must be positive")
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.Lognormal(mu, math.Sqrt(sigma2))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Poisson returns a Poisson draw with the given mean using Knuth's method
// for small means and a normal approximation above 64 (adequate for load
// modelling).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(s.Normal(mean, math.Sqrt(mean)) + 0.5)
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MarkovOnOff models a two-state continuous-time Markov process used for
// per-OST external load: in the ON state a given number of external streams
// compete for the storage target; in the OFF state none do. Holding times
// are exponential.
type MarkovOnOff struct {
	src      *Source
	MeanOn   float64 // mean seconds in ON state
	MeanOff  float64 // mean seconds in OFF state
	on       bool
	holdLeft float64
}

// NewMarkovOnOff creates a process with the given mean holding times,
// starting in a stationary-probability random state with a fresh holding
// time.
func NewMarkovOnOff(src *Source, meanOn, meanOff float64) *MarkovOnOff {
	if meanOn <= 0 || meanOff <= 0 {
		panic("rngx: MarkovOnOff holding times must be positive")
	}
	m := &MarkovOnOff{src: src, MeanOn: meanOn, MeanOff: meanOff}
	m.Reinit()
	return m
}

// Reinit redraws the process's state and holding time from its source,
// exactly as construction does — consuming one Bernoulli and one Exp draw —
// so a reused process (source reseeded in place) restarts bit-identically
// to a freshly built one.
func (m *MarkovOnOff) Reinit() {
	pOn := m.MeanOn / (m.MeanOn + m.MeanOff)
	m.on = m.src.Bernoulli(pOn)
	m.holdLeft = m.draw()
}

func (m *MarkovOnOff) draw() float64 {
	if m.on {
		return m.src.Exp(m.MeanOn)
	}
	return m.src.Exp(m.MeanOff)
}

// On reports the current state.
func (m *MarkovOnOff) On() bool { return m.on }

// NextTransition returns the seconds until the next state flip.
func (m *MarkovOnOff) NextTransition() float64 { return m.holdLeft }

// Advance moves the process forward dt seconds, flipping states as holding
// times expire, and returns the new state.
func (m *MarkovOnOff) Advance(dt float64) bool {
	for dt >= m.holdLeft {
		dt -= m.holdLeft
		m.on = !m.on
		m.holdLeft = m.draw()
	}
	m.holdLeft -= dt
	return m.on
}
