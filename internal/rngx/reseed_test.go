package rngx

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestFNV64aMatchesStdlib pins the inlined FNV-1a against hash/fnv, which
// NewNamed/ReseedNamed and DeriveSeed rely on for name mixing.
func TestFNV64aMatchesStdlib(t *testing.T) {
	cases := []string{"", "pfs", "mds", "interference", "global", "hot",
		"ost-0", "ost-671", "xtp-phase", "a", "ab", "ba",
		"a slightly longer label with spaces", "\x00\xff"}
	for i := 0; i < 64; i++ {
		cases = append(cases, fmt.Sprintf("ost-%d", i*13))
	}
	for _, s := range cases {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := fnv64a(s), h.Sum64(); got != want {
			t.Fatalf("fnv64a(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestReseedMatchesNew pins the world-reuse RNG contract: a reseeded stream
// continues bit-identically to a freshly constructed one, for both the raw
// and the name-keyed forms.
func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		s.Int63() // dirty the stream
	}
	s.Reseed(42)
	fresh := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := s.Int63(), fresh.Int63(); got != want {
			t.Fatalf("draw %d after Reseed = %d, want %d", i, got, want)
		}
	}

	s.ReseedNamed(7, "pfs")
	named := NewNamed(7, "pfs")
	for i := 0; i < 1000; i++ {
		if got, want := s.Float64(), named.Float64(); got != want {
			t.Fatalf("draw %d after ReseedNamed = %v, want %v", i, got, want)
		}
	}
}

// TestReseedDerivationParity verifies that reseeding a derived stream with
// the parent's next Int63 reproduces Derive exactly — the pattern the file
// system and noise resets use to re-arm their sub-streams.
func TestReseedDerivationParity(t *testing.T) {
	parentA := NewNamed(11, "root")
	childA := parentA.Derive("sub")

	parentB := NewNamed(11, "root")
	childB := New(99)
	childB.ReseedNamed(parentB.Int63(), "sub")

	for i := 0; i < 500; i++ {
		if got, want := childB.Int63(), childA.Int63(); got != want {
			t.Fatalf("derived-stream draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestMarkovReinitMatchesNew pins MarkovOnOff.Reinit: a reused process whose
// source was reseeded restarts in the exact state a fresh construction
// produces, consuming the same draws.
func TestMarkovReinitMatchesNew(t *testing.T) {
	srcA := New(5)
	fresh := NewMarkovOnOff(srcA, 120, 260)

	srcB := New(77)
	reused := NewMarkovOnOff(srcB, 7, 3)
	for i := 0; i < 50; i++ {
		reused.Advance(reused.NextTransition()) // dirty the process
	}
	srcB.Reseed(5)
	reused.MeanOn, reused.MeanOff = 120, 260
	reused.Reinit()

	for i := 0; i < 200; i++ {
		if fresh.On() != reused.On() || fresh.NextTransition() != reused.NextTransition() {
			t.Fatalf("step %d: fresh (on=%v hold=%v) != reinit (on=%v hold=%v)",
				i, fresh.On(), fresh.NextTransition(), reused.On(), reused.NextTransition())
		}
		dt := fresh.NextTransition()
		fresh.Advance(dt)
		reused.Advance(dt)
	}
}

// TestReseedSteadyStateZeroAlloc gates the reuse path's allocation claim:
// reseeding allocates nothing, even to a seed the process has never seen.
func TestReseedSteadyStateZeroAlloc(t *testing.T) {
	s := New(1234)
	seed := int64(1234)
	got := testing.AllocsPerRun(100, func() {
		seed++
		s.Reseed(seed)
		s.Int63()
	})
	if got != 0 {
		t.Fatalf("Reseed to a fresh seed allocates %v allocs/op; want 0", got)
	}
}
