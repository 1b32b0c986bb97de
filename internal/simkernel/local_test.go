package simkernel

import "testing"

// TestLocalOnePerKernelAndType asks for locals of two types on two
// kernels: the same kernel and type give the same T every time, and a
// different kernel or a different type gives a different one.
func TestLocalOnePerKernelAndType(t *testing.T) {
	k1, k2 := New(), New()
	a := Local[Slab[slabRec]](k1)
	if Local[Slab[slabRec]](k1) != a {
		t.Fatal("one kernel handed out two slabs of one type")
	}
	if Local[Slab[slabRec]](k2) == a {
		t.Fatal("two kernels share one local")
	}
	words := Local[Slab[uint64]](k1)
	if Local[Slab[uint64]](k1) != words {
		t.Fatal("a second type's local changed on a second call")
	}
	if Local[Slab[slabRec]](k1) != a {
		t.Fatal("a second type displaced the first type's local")
	}
}

// TestResetRewindsLocals carves from two local slabs, resets the kernel and
// carves again: each slab hands out its first record again, zeroed.
func TestResetRewindsLocals(t *testing.T) {
	k := New()
	recs, words := Local[Slab[slabRec]](k), Local[Slab[uint64]](k)
	first, firstWords := recs.New(), words.Take(3)
	first.id = 7
	firstWords[0] = 9
	recs.New()
	words.Take(5)
	k.Reset()
	if r := Local[Slab[slabRec]](k).New(); r != first || r.id != 0 {
		t.Fatalf("after Reset the slab handed out %p (id %d), want its first record %p zeroed", r, r.id, first)
	}
	if w := Local[Slab[uint64]](k).Take(3); &w[0] != &firstWords[0] || w[0] != 0 {
		t.Fatal("after Reset the word slab did not rewind to its first run")
	}
}
