package simkernel

import (
	"fmt"
	"testing"
)

// ringDrain pops everything and returns the contents in FIFO order.
func ringDrain(r *Ring[int]) []int {
	out := make([]int, 0, r.Len())
	for r.Len() > 0 {
		out = append(out, r.Pop())
	}
	return out
}

func TestRingPushPopOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 20; i++ {
		r.Push(i)
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d, want 20", r.Len())
	}
	for i := 0; i < 20; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop #%d = %d, want %d", i, got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", r.Len())
	}
}

// TestRingWrap interleaves pushes and pops so the occupied region straddles
// the end of the backing array, then grows mid-wrap: order must survive both.
func TestRingWrap(t *testing.T) {
	var r Ring[int]
	next := 0 // next value to push
	want := 0 // next value expected from Pop
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	// 12 elements remain, head well past zero; force one more grow.
	for i := 0; i < 20; i++ {
		r.Push(next)
		next++
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d values, pushed %d", want, next)
	}
}

func TestRingAt(t *testing.T) {
	var r Ring[int]
	// Offset the head so At must wrap.
	for i := 0; i < 6; i++ {
		r.Push(-1)
	}
	for i := 0; i < 6; i++ {
		r.Pop()
	}
	for i := 0; i < 7; i++ {
		r.Push(10 + i)
	}
	for i := 0; i < 7; i++ {
		if got := r.At(i); got != 10+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 10+i)
		}
	}
}

// TestRingRemoveAt checks order preservation against a reference slice for
// removals at every index, with the head offset to force wrapped shifts.
func TestRingRemoveAt(t *testing.T) {
	for offset := 0; offset < 8; offset++ {
		for remove := 0; remove < 8; remove++ {
			var r Ring[int]
			for i := 0; i < offset; i++ {
				r.Push(-1)
			}
			for i := 0; i < offset; i++ {
				r.Pop()
			}
			ref := make([]int, 0, 8)
			for i := 0; i < 8; i++ {
				r.Push(i)
				ref = append(ref, i)
			}
			if got := r.RemoveAt(remove); got != ref[remove] {
				t.Fatalf("offset=%d: RemoveAt(%d) = %d, want %d", offset, remove, got, ref[remove])
			}
			ref = append(ref[:remove], ref[remove+1:]...)
			got := ringDrain(&r)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("offset=%d remove=%d: drained %v, want %v", offset, remove, got, ref)
			}
		}
	}
}

// TestRingReset pins the two Reset guarantees: occupied slots are zeroed (so
// pooled pointers are not retained past a run) and the backing array is kept
// (so a recycled world's queues stay allocation-free).
func TestRingReset(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 10; i++ {
		v := i
		r.Push(&v)
	}
	r.Pop()
	capBefore := cap(r.buf)
	r.Reset()
	if r.Len() != 0 || r.head != 0 {
		t.Fatalf("after Reset: Len=%d head=%d, want 0/0", r.Len(), r.head)
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("Reset left a live pointer at slot %d", i)
		}
	}
	if cap(r.buf) != capBefore {
		t.Fatalf("Reset dropped the backing array: cap %d -> %d", capBefore, cap(r.buf))
	}
	r.Push(new(int))
	if r.Len() != 1 {
		t.Fatalf("ring unusable after Reset")
	}
}

func TestRingPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var r Ring[int]
	mustPanic("Pop on empty", func() { r.Pop() })
	r.Push(1)
	mustPanic("At(1) with one element", func() { r.At(1) })
	mustPanic("At(-1)", func() { r.At(-1) })
	mustPanic("RemoveAt(1) with one element", func() { r.RemoveAt(1) })
}

// FuzzRing decodes the fuzz bytes into Push, Pop, RemoveAt and Reset
// operations and, after each one, checks Len, every At and the popped or
// removed value against a plain slice. Each byte is one operation: its low
// two bits pick the kind, the rest is the RemoveAt index (modulo Len).
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 6, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 10, 14, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r Ring[int]
		var ref []int
		for step, op := range ops {
			switch op & 3 {
			case 0:
				r.Push(step)
				ref = append(ref, step)
			case 1:
				if len(ref) == 0 {
					continue
				}
				if got := r.Pop(); got != ref[0] {
					t.Fatalf("op %d: Pop = %d, want %d", step, got, ref[0])
				}
				ref = ref[1:]
			case 2:
				if len(ref) == 0 {
					continue
				}
				i := int(op>>2) % len(ref)
				if got := r.RemoveAt(i); got != ref[i] {
					t.Fatalf("op %d: RemoveAt(%d) = %d, want %d", step, i, got, ref[i])
				}
				ref = append(ref[:i], ref[i+1:]...)
			case 3:
				r.Reset()
				ref = ref[:0]
			}
			if r.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", step, r.Len(), len(ref))
			}
			for i, want := range ref {
				if got := r.At(i); got != want {
					t.Fatalf("op %d: At(%d) = %d, want %d", step, i, got, want)
				}
			}
		}
	})
}
