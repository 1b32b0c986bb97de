package rngx

import "math/rand"

// This file reimplements math/rand's additive lagged Fibonacci source
// (Mitchell & Reeds, x[n] = x[n-273] + x[n-607]) bit for bit, so Source can
// keep the exact streams the pinned golden checksums were captured against
// while fixing the generator's one hot spot: Seed. math/rand expands a seed
// by walking a 1841-step LCG chain to fill the 607-word feedback register,
// which is ~20x the cost of the handful of draws a short-lived stream ever
// makes — the noise model reseeds one stream per storage target for every
// replica. Each register word is a pure function of (seed, index)
// (alfgWord), and a draw reads only two words, so Seed computes nothing:
// each word is filled in on its first read, and a stream that makes a few
// draws pays for a few words.

const (
	alfgLen      = 607
	alfgTap      = 273
	alfgMask     = 1<<63 - 1
	alfgInt32Max = 1<<31 - 1
)

// alfgSource implements rand.Source64 with math/rand's exact semantics.
type alfgSource struct {
	tap  int
	feed int
	// lazy counts the draws left that read a register word for the first
	// time since Seed; those draws compute the word from key (alfgWord).
	lazy int
	key  int32
	vec  [alfgLen]int64
}

func newAlfg(seed int64) *alfgSource {
	s := &alfgSource{}
	s.Seed(seed)
	return s
}

// alfgSeedrand advances the seeding LCG: x[n+1] = 48271*x[n] mod (2^31-1).
// math/rand uses Schrage's decomposition (two divisions) to avoid 32-bit
// overflow; with 64-bit arithmetic the product fits directly and the modulus
// is the Mersenne prime 2^31-1, so a fold (2^31 ≡ 1 mod M) plus one
// conditional subtraction yields the identical residue division-free.
func alfgSeedrand(x int32) int32 {
	y := uint64(x) * 48271
	y = (y & alfgInt32Max) + (y >> 31)
	if y >= alfgInt32Max {
		y -= alfgInt32Max
	}
	return int32(y)
}

// alfgKey reduces a seed the way rngSource.Seed does; seeds equal mod
// 2^31-1 produce identical registers.
func alfgKey(seed int64) int32 {
	seed = seed % alfgInt32Max
	if seed < 0 {
		seed += alfgInt32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// alfgModmul is x*y mod (2^31-1) for x, y < 2^31: the product fits in 62
// bits, so two Mersenne folds and a conditional subtraction reduce it
// exactly.
func alfgModmul(x, y uint64) uint64 {
	p := x * y
	p = (p & alfgInt32Max) + (p >> 31)
	p = (p & alfgInt32Max) + (p >> 31)
	if p >= alfgInt32Max {
		p -= alfgInt32Max
	}
	return p
}

// alfgJump[i] = 48271^(21+3i) mod (2^31-1): the LCG state entering word i of
// the expansion. The seeding LCG is multiplicative, so its n-th state has
// the closed form a^n*key mod M; precomputing the power for each word turns
// the 1841-step serial dependency chain of math/rand's expansion into 607
// independent per-word computations.
var alfgJump [alfgLen]uint64

func init() {
	const a = 48271
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = alfgModmul(x, a)
	}
	step := alfgModmul(alfgModmul(a, a), a)
	for i := 0; i < alfgLen; i++ {
		alfgJump[i] = x
		x = alfgModmul(x, step)
	}
}

// alfgWord is register word i for a reduced seed: three LCG draws XORed
// with the cooked constant — bit-identical to word i of math/rand's chained
// walk, jump-started via alfgJump.
func alfgWord(key int32, i int) int64 {
	x1 := int32(alfgModmul(alfgJump[i], uint64(key)))
	x2 := alfgSeedrand(x1)
	x3 := alfgSeedrand(x2)
	u := int64(x1) << 40
	u ^= int64(x2) << 20
	u ^= int64(x3)
	return u ^ alfgCooked[i]
}

// Seed puts the source in the state math/rand's rngSource.Seed produces,
// with every register word still to be computed on first read.
func (s *alfgSource) Seed(seed int64) {
	s.tap = 0
	s.feed = alfgLen - alfgTap
	s.key = alfgKey(seed)
	s.lazy = alfgLen - alfgTap
}

// Uint64 returns the next raw register sum (math/rand's core step).
func (s *alfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += alfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += alfgLen
	}
	if s.lazy > 0 {
		// Both indices step down by one per draw, so the first read of
		// every word comes at a fixed draw d after Seed: feed reads words
		// 333..0 at d = 1..334, and tap reads words 606..334 at d =
		// 1..273, before feed wraps round to them.
		s.lazy--
		s.vec[s.feed] = alfgWord(s.key, s.feed)
		if s.lazy >= alfgLen-2*alfgTap {
			s.vec[s.tap] = alfgWord(s.key, s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *alfgSource) Int63() int64 {
	return int64(s.Uint64() & alfgMask)
}

var _ rand.Source64 = (*alfgSource)(nil)
