package rngx

import (
	"fmt"
	"math/rand"
	"testing"
)

// alfgSeeds exercises the reduction edge cases: zero (remapped), the
// modulus and its neighbours, negatives, and ordinary experiment seeds.
var alfgSeeds = []int64{
	0, 1, -1, 2010, 89482311,
	alfgInt32Max - 1, alfgInt32Max, alfgInt32Max + 1,
	-alfgInt32Max, 1 << 40, -(1 << 40), 7907, 123456789,
}

// TestAlfgMatchesMathRand pins the reimplementation to math/rand draw for
// draw. 2000 draws is more than three times the register length, so the
// feedback indices wrap and the post-seed recurrence is fully exercised.
func TestAlfgMatchesMathRand(t *testing.T) {
	for _, seed := range alfgSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newAlfg(seed))
		for i := 0; i < 2000; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: alfg %#x != math/rand %#x", seed, i, g, r)
			}
		}
	}
}

// alfgLazyDraws are the stream lengths around the lazy register's edges:
// the first draw, the last draws that compute a word through tap (273) and
// through feed (334), the register length, and well past it.
var alfgLazyDraws = []int{0, 1, 272, 273, 333, 334, 606, 607, 10000}

// TestAlfgLazySeedingMatchesMathRand pins lazy register filling to
// math/rand draw for draw: for every seed, through each stream length in
// alfgLazyDraws, and then across a Seed issued at that point followed by
// 2000 more draws — so a reseed mid-stream, with part of the register
// filled and part still pending, forgets every word of the old stream.
func TestAlfgLazySeedingMatchesMathRand(t *testing.T) {
	compare := func(ref rand.Source64, got *alfgSource, n int, what string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("%s draw %d: alfg %#x != math/rand %#x", what, i, g, r)
			}
		}
	}
	for j, seed := range alfgSeeds {
		next := alfgSeeds[(j+1)%len(alfgSeeds)]
		for _, k := range alfgLazyDraws {
			ref := rand.NewSource(seed).(rand.Source64)
			got := newAlfg(seed)
			compare(ref, got, k, fmt.Sprintf("seed %d", seed))
			ref.Seed(next)
			got.Seed(next)
			compare(ref, got, 2000, fmt.Sprintf("seed %d after %d draws of seed %d", next, k, seed))
		}
	}
}

// TestAlfgDistributionsMatch guards the rand.Rand layering: Float64 and the
// rejection-sampling distributions consume source words in patterns that
// would expose any off-by-one in Uint64 state handling.
func TestAlfgDistributionsMatch(t *testing.T) {
	ref := rand.New(rand.NewSource(2010))
	got := rand.New(newAlfg(2010))
	for i := 0; i < 500; i++ {
		if r, g := ref.Float64(), got.Float64(); r != g {
			t.Fatalf("Float64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.ExpFloat64(), got.ExpFloat64(); r != g {
			t.Fatalf("ExpFloat64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.NormFloat64(), got.NormFloat64(); r != g {
			t.Fatalf("NormFloat64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.Intn(997), got.Intn(997); r != g {
			t.Fatalf("Intn draw %d: %v != %v", i, g, r)
		}
	}
}

// alfgSeedDraws are the benchmarked stream lengths after a Seed: a short
// replica's stream, and the draws that read the whole register — the cost
// of a full expansion.
var alfgSeedDraws = []int{4, 607}

// BenchmarkAlfgSeed measures seeding a never-seen seed and drawing a stream
// of each length in alfgSeedDraws.
func BenchmarkAlfgSeed(b *testing.B) {
	for _, n := range alfgSeedDraws {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var s alfgSource
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i + 1))
				for j := 0; j < n; j++ {
					s.Uint64()
				}
			}
		})
	}
}

// BenchmarkMathRandSeed is BenchmarkAlfgSeed's stdlib baseline: the serial
// 1841-step expansion on every Seed, whatever the stream's length.
func BenchmarkMathRandSeed(b *testing.B) {
	for _, n := range alfgSeedDraws {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			src := rand.NewSource(1).(rand.Source64)
			for i := 0; i < b.N; i++ {
				src.Seed(int64(i + 1))
				for j := 0; j < n; j++ {
					src.Uint64()
				}
			}
		})
	}
}
