package rngx

import (
	"math"
	"strconv"
	"testing"
)

func TestNamedStreamsIndependentAndReproducible(t *testing.T) {
	a1 := NewNamed(42, "ost-load")
	a2 := NewNamed(42, "ost-load")
	b := NewNamed(42, "mds-load")
	sawDiff := false
	for i := 0; i < 32; i++ {
		x1, x2, y := a1.Float64(), a2.Float64(), b.Float64()
		if x1 != x2 {
			t.Fatalf("same (seed,name) diverged at draw %d: %v vs %v", i, x1, x2)
		}
		if x1 != y {
			sawDiff = true
		}
	}
	if !sawDiff {
		t.Fatal("different names produced identical streams")
	}
}

func TestDeriveReproducible(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	c1 := p1.Derive("child")
	c2 := p2.Derive("child")
	for i := 0; i < 16; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("derived streams diverged")
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~3.0", mean)
	}
}

func TestLognormalMeanCV(t *testing.T) {
	s := New(2)
	p := LognormalParams(10, 0.5)
	const n = 400000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := s.DrawLognormal(p)
		sum += x
		sq += x * x
	}
	mean := sum / n
	varr := sq/n - mean*mean
	cv := math.Sqrt(varr) / mean
	if math.Abs(mean-10) > 0.15 {
		t.Fatalf("lognormal mean = %v, want ~10", mean)
	}
	if math.Abs(cv-0.5) > 0.03 {
		t.Fatalf("lognormal CV = %v, want ~0.5", cv)
	}
}

func TestLognormalZeroCVDegeneratesToMean(t *testing.T) {
	s := New(3)
	if got := s.DrawLognormal(LognormalParams(5, 0)); got != 5 {
		t.Fatalf("cv=0 should return the mean, got %v", got)
	}
}

// TestDrawLognormalMatchesInlineDerivation checks that drawing over
// parameters derived once gives the same bits, and consumes the same
// stream, as deriving mu and sigma at every draw.
func TestDrawLognormalMatchesInlineDerivation(t *testing.T) {
	for _, mean := range []float64{1e-4, 0.5, 1, 37} {
		for _, cv := range []float64{0, 1e-9, 0.3, 0.65, 2} {
			a, b := New(11), New(11)
			p := LognormalParams(mean, cv)
			for i := 0; i < 64; i++ {
				want := mean
				if cv > 0 {
					sigma2 := math.Log(1 + cv*cv)
					want = b.Lognormal(math.Log(mean)-sigma2/2, math.Sqrt(sigma2))
				}
				if got := a.DrawLognormal(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("mean %v cv %v draw %d: %v, inline derivation %v", mean, cv, i, got, want)
				}
			}
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-3, 7)
		if x < -3 || x >= 7 {
			t.Fatalf("uniform draw %v out of [-3,7)", x)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(6)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(7)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestMarkovOnOffStationaryFraction(t *testing.T) {
	s := New(8)
	m := NewMarkovOnOff(s, 2.0, 6.0) // stationary P(on) = 0.25
	const step = 0.1
	var onTime, total float64
	for i := 0; i < 400000; i++ {
		if m.On() {
			onTime += step
		}
		total += step
		m.Advance(step)
	}
	frac := onTime / total
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("on-fraction = %v, want ~0.25", frac)
	}
}

func TestMarkovOnOffAdvanceCrossesMultipleHolds(t *testing.T) {
	s := New(9)
	m := NewMarkovOnOff(s, 1.0, 1.0)
	// Jump far beyond any single holding time; must not hang or panic and
	// must leave a positive residual hold.
	m.Advance(1e6)
	if m.NextTransition() <= 0 {
		t.Fatal("residual holding time must be positive")
	}
}

func TestPanicsOnInvalidParams(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"exp":    func() { s.Exp(0) },
		"lnmean": func() { s.DrawLognormal(LognormalParams(0, 1)) },
		"markov": func() { NewMarkovOnOff(s, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDeriveSeedDeterministicAndLabelSensitive(t *testing.T) {
	a := DeriveSeed(42, "fig5", "mpi/base/procs=512", "3")
	b := DeriveSeed(42, "fig5", "mpi/base/procs=512", "3")
	if a != b {
		t.Fatal("DeriveSeed not deterministic")
	}
	variants := []int64{
		DeriveSeed(43, "fig5", "mpi/base/procs=512", "3"),
		DeriveSeed(42, "fig1", "mpi/base/procs=512", "3"),
		DeriveSeed(42, "fig5", "mpi/base/procs=512", "4"),
		DeriveSeed(42, "fig5", "3", "mpi/base/procs=512"), // order matters
		DeriveSeed(42, "fig5", "mpi/base/procs=5123"),     // concatenation differs
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collided with base seed", i)
		}
	}
}

// TestDeriveSeedNoGridCollisions derives seeds across a campaign-shaped grid
// far larger than any driver's (4 methods × 2 conditions × 16 proc counts ×
// 512 samples = 65536 replicas) and requires them all distinct. The old
// affine formula (seed + s*7907 + procs*3 + len(method)) collides on such
// grids whenever s1*7907 + p1*3 == s2*7907 + p2*3.
func TestDeriveSeedNoGridCollisions(t *testing.T) {
	seen := make(map[int64][]string)
	collisions := 0
	for _, method := range []string{"MPI", "POSIX", "ADAPTIVE", "STAGING"} {
		for _, cond := range []string{"base", "interference"} {
			for procs := 1; procs <= 1<<16; procs *= 2 {
				for s := 0; s < 512; s++ {
					point := method + "/" + cond + "/procs=" + strconv.Itoa(procs)
					seed := DeriveSeed(42, "eval", point, strconv.Itoa(s))
					key := point + "#" + strconv.Itoa(s)
					if prev, ok := seen[seed]; ok {
						collisions++
						t.Errorf("seed collision: %v and %s -> %d", prev, key, seed)
					}
					seen[seed] = append(seen[seed], key)
				}
			}
		}
	}
	if collisions > 0 {
		t.Fatalf("%d collisions in %d replicas", collisions, len(seen))
	}
}

// TestDeriveSeedOldFormulaCollides documents the failure mode that motivated
// DeriveSeed: the fig5-style affine seed formula assigns the same seed (hence
// the same simulated environment) to distinct replicas.
func TestDeriveSeedOldFormulaCollides(t *testing.T) {
	old := func(seed int64, s, procs, methodLen int) int64 {
		return seed + int64(s)*7907 + int64(procs)*3 + int64(methodLen)
	}
	// sample 3 at 512 procs vs sample 0 at 512+7907 procs (methodLen equal):
	// 3*7907 + 512*3 == 0*7907 + (512+7907)*3.
	if old(42, 3, 512, 3) != old(42, 0, 512+7907, 3) {
		t.Fatal("expected demonstration collision in the old formula")
	}
	if DeriveSeed(42, "eval", "procs=512", "3") == DeriveSeed(42, "eval", "procs=8419", "0") {
		t.Fatal("DeriveSeed reproduced the old formula's collision")
	}
}

// TestDeriveSeedBitBalance checks output spreading: across consecutive
// sample indices under one label prefix, every output bit should flip close
// to half the time (a cheap avalanche/distribution proxy).
func TestDeriveSeedBitBalance(t *testing.T) {
	const n = 4096
	var ones [64]int
	for s := 0; s < n; s++ {
		v := uint64(DeriveSeed(7, "table1", "Jaguar", strconv.Itoa(s)))
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b := 0; b < 64; b++ {
		frac := float64(ones[b]) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d set in %.1f%% of seeds, want ~50%%", b, 100*frac)
		}
	}
}

// TestInt63nMatchesIntn pins Int63n to what Intn draws for the same bound
// past 2³¹ on a 64-bit int, so moving a draw from Intn to Int63n (to build
// on 32-bit platforms) keeps every value.
func TestInt63nMatchesIntn(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("Intn cannot take a bound past 2³¹ on a 32-bit int")
	}
	for _, n := range []int64{1 << 31, 1 << 34, 1<<35 + 7} {
		a, b := New(7), New(7)
		for i := range 1000 {
			if got, want := a.Int63n(n), int64(b.Intn(int(n))); got != want {
				t.Fatalf("draw %d below %d: Int63n %d, Intn %d", i, n, got, want)
			}
		}
	}
}
