package simkernel

import "testing"

type slabRec struct {
	id   int
	next *slabRec
	pad  [6]int
}

// TestSlabPointersStableAcrossGrowth hands out more records than a chunk
// holds, stamping each: every pointer stays valid and distinct while later
// chunks are appended.
func TestSlabPointersStableAcrossGrowth(t *testing.T) {
	var s Slab[slabRec]
	const n = 5*slabChunk + 3
	recs := make([]*slabRec, n)
	for i := range recs {
		recs[i] = s.New()
		recs[i].id = i + 1
		if i > 0 {
			recs[i].next = recs[i-1]
		}
	}
	seen := make(map[*slabRec]bool, n)
	for i, r := range recs {
		if seen[r] {
			t.Fatalf("record %d handed out twice", i)
		}
		seen[r] = true
		if r.id != i+1 || (i > 0 && r.next != recs[i-1]) {
			t.Fatalf("record %d reads id %d after the slab grew", i, r.id)
		}
	}
}

// TestSlabResetRewindsAndZeroes dirties records and word runs, resets, and
// takes the same sizes again: the slab hands out the same memory, zeroed,
// and a run longer than a chunk gets a chunk of its own.
func TestSlabResetRewindsAndZeroes(t *testing.T) {
	var recs Slab[slabRec]
	var words Slab[uint64]
	sizes := []int{3, 11, 1, slabChunk + 7, 11, slabChunk - 2, 4}
	var firstRecs []*slabRec
	var firstWords [][]uint64
	for pass := 0; pass < 2; pass++ {
		for i, n := range sizes {
			r := recs.New()
			if *r != (slabRec{}) {
				t.Fatalf("pass %d: record %d handed out dirty: %+v", pass, i, *r)
			}
			w := words.Take(n)
			if len(w) != n || cap(w) != n {
				t.Fatalf("pass %d: Take(%d) gave len %d cap %d", pass, n, len(w), cap(w))
			}
			for j, v := range w {
				if v != 0 {
					t.Fatalf("pass %d: word %d of run %d handed out as %#x", pass, j, i, v)
				}
			}
			if pass == 0 {
				firstRecs = append(firstRecs, r)
				firstWords = append(firstWords, w)
			} else if r != firstRecs[i] || &w[0] != &firstWords[i][0] {
				t.Fatalf("pass 1: request %d got new memory after Reset", i)
			}
			r.id, r.next, r.pad[5] = -1, r, -1
			for j := range w {
				w[j] = ^uint64(0)
			}
		}
		recs.Reset()
		words.Reset()
	}
	if got := words.Take(0); got != nil {
		t.Fatalf("Take(0) = %v, want nil", got)
	}
}

// TestSlabReuseKeepsContents pins what Reuse is for: after Reset it hands
// out the records of the previous pass as they were left.
func TestSlabReuseKeepsContents(t *testing.T) {
	var s Slab[slabRec]
	for i := 0; i < 3; i++ {
		r := s.Reuse()
		if r.id != 0 {
			t.Fatalf("fresh record %d reads id %d, want 0", i, r.id)
		}
		r.id = 10 + i
	}
	s.Reset()
	for i := 0; i < 3; i++ {
		if r := s.Reuse(); r.id != 10+i {
			t.Fatalf("reused record %d reads id %d, want %d", i, r.id, 10+i)
		}
	}
}

// TestSlabSecondPassZeroAlloc is the slab's reason to exist: once a pass
// has grown the chunks, the same requests after Reset allocate nothing.
func TestSlabSecondPassZeroAlloc(t *testing.T) {
	var recs Slab[slabRec]
	var words Slab[uint64]
	pass := func() {
		recs.Reset()
		words.Reset()
		for i := 0; i < 3*slabChunk; i++ {
			recs.New().id = i
			words.Take(1 + i%11)[0] = 1
		}
		words.Take(2 * slabChunk)
	}
	pass()
	if got := testing.AllocsPerRun(20, pass); got != 0 {
		t.Fatalf("second pass allocates %v allocs/op; want 0", got)
	}
}

// FuzzSlab decodes the fuzz bytes into New, Reuse, Take and Reset
// operations, stamps every element it is handed, and after each operation
// checks every element handed out since the last Reset against a plain-slice
// reference: New and Take hand out zeroes, and nothing handed out is handed
// out again or overwritten before Reset. Each byte is one operation: its
// low two bits pick the kind, the rest (times 3) is Take's length.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 6, 3, 0, 1, 254, 2})
	f.Add([]byte{254, 254, 254, 0, 3, 254, 254, 254, 0, 1, 3, 130, 130})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s Slab[int]
		var live []*int // every element handed out since the last Reset
		var ref []int   // the stamp each of those should still hold
		for step, op := range ops {
			var got []*int
			switch op & 3 {
			case 0:
				p := s.New()
				if *p != 0 {
					t.Fatalf("op %d: New handed out %d", step, *p)
				}
				got = append(got, p)
			case 1:
				got = append(got, s.Reuse())
			case 2:
				n := int(op>>2) * 3
				run := s.Take(n)
				if len(run) != n || cap(run) != n {
					t.Fatalf("op %d: Take(%d) gave len %d cap %d", step, n, len(run), cap(run))
				}
				for j := range run {
					if run[j] != 0 {
						t.Fatalf("op %d: Take(%d)[%d] = %d", step, n, j, run[j])
					}
					got = append(got, &run[j])
				}
			case 3:
				s.Reset()
				live, ref = live[:0], ref[:0]
				continue
			}
			for _, p := range got {
				*p = len(ref) + 1
				live, ref = append(live, p), append(ref, len(ref)+1)
			}
			for i, p := range live {
				if *p != ref[i] {
					t.Fatalf("op %d: element %d reads %d, want %d", step, i, *p, ref[i])
				}
			}
		}
	})
}

// TestSlabVaryingRunsStopAllocating takes runs longer than a chunk whose
// sizes change from pass to pass, as runs sized by a replica's seed do:
// once the kept chunks have grown past a pass's demand, later passes
// allocate nothing although no two passes ask for the same sizes.
func TestSlabVaryingRunsStopAllocating(t *testing.T) {
	var s Slab[uint64]
	p := 0
	pass := func() {
		s.Reset()
		for i := 0; i < 64; i++ {
			s.Take(slabChunk + 1 + (p*p*7+i*i*13+p*i*5)%slabChunk)
		}
		p++
	}
	for range 8 {
		pass()
	}
	if got := testing.AllocsPerRun(20, pass); got != 0 {
		t.Fatalf("passes of varying runs allocate %v allocs/op after warming; want 0", got)
	}
}
