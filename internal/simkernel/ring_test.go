package simkernel

import (
	"slices"
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

// wrappedRing builds a ring holding vals, grown to fit them first and then
// with its head moved offset slots on, so the contents can wrap round the
// end of the backing array.
func wrappedRing(offset int, vals []int) *Ring[int] {
	var r Ring[int]
	for range vals {
		r.Push(-1)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for range offset {
		r.Push(-1)
		r.Pop()
	}
	for _, v := range vals {
		r.Push(v)
	}
	return &r
}

// eqKey is a match function for RemoveFirst: the element equals the key.
func eqKey(key, v int) bool { return key == v }

func TestRingFront(t *testing.T) {
	r := wrappedRing(6, []int{10, 11, 12, 13, 14, 15, 16})
	for want := 10; r.Len() > 0; want++ {
		if got := r.Front(); got != want {
			t.Fatalf("Front = %d, want %d", got, want)
		}
		r.Pop()
	}
}

// TestRingBack reads the tail at every head offset, so the tail is read
// both before and after the contents wrap round the backing array.
func TestRingBack(t *testing.T) {
	for offset := 0; offset < 16; offset++ {
		r := wrappedRing(offset, []int{10})
		for v := 11; v < 18; v++ {
			r.Push(v)
			if got := r.Back(); got != v {
				t.Fatalf("offset=%d: Back = %d, want the last push %d", offset, got, v)
			}
		}
		for r.Len() > 1 {
			r.Pop()
			if got := r.Back(); got != 17 {
				t.Fatalf("offset=%d: Back = %d after a Pop, want 17", offset, got)
			}
		}
	}
}

// TestRingRemoveFirst checks order preservation against a reference slice
// for a removal at each of the first eight positions (so both the head and
// the tail side shift), at every head offset. 0 and 7 are held twice, and
// the older of the two must go; a key held by nothing must leave the ring
// untouched.
func TestRingRemoveFirst(t *testing.T) {
	for offset := 0; offset < 16; offset++ {
		for key := 0; key <= 8; key++ {
			ref := []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 7}
			r := wrappedRing(offset, ref)
			v, ok := RemoveFirst(r, key, eqKey)
			if want := key < 8; ok != want || ok && v != key {
				t.Fatalf("offset=%d: RemoveFirst(%d) = %d, %v, want found=%v", offset, key, v, ok, want)
			}
			if ok {
				ref = slices.Delete(ref, key, key+1)
			}
			if got := ringDrain(r); !slices.Equal(got, ref) {
				t.Fatalf("offset=%d key=%d: drained %v, want %v", offset, key, got, ref)
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
	mustPanic("Front on empty", func() { r.Front() })
	mustPanic("Back on empty", func() { r.Back() })
}

// FuzzRing decodes the fuzz bytes into Push, Pop, RemoveFirst and Reset
// operations and, after each one, checks Len, the popped or removed value
// the tail (Back) and every element (read at Front while rotating the ring
// once round) against a plain slice. Each byte is one operation: its low two bits pick
// the kind, the rest is the RemoveFirst key (modulo 8). Pushed values cycle
// through 0..5, so a key can match several elements, of which the oldest
// must go, or none.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 6, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 10, 14, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 30, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r Ring[int]
		var ref []int
		for step, op := range ops {
			switch op & 3 {
			case 0:
				r.Push(step % 6)
				ref = append(ref, step%6)
			case 1:
				if len(ref) == 0 {
					continue
				}
				if got := r.Pop(); got != ref[0] {
					t.Fatalf("op %d: Pop = %d, want %d", step, got, ref[0])
				}
				ref = ref[1:]
			case 2:
				key := int(op>>2) % 8
				i := slices.Index(ref, key)
				got, ok := RemoveFirst(&r, key, eqKey)
				if ok != (i >= 0) || ok && got != key {
					t.Fatalf("op %d: RemoveFirst(%d) = %d, %v, want found=%v", step, key, got, ok, i >= 0)
				}
				if ok {
					ref = slices.Delete(ref, i, i+1)
				}
			case 3:
				r.Reset()
				ref = ref[:0]
			}
			if r.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", step, r.Len(), len(ref))
			}
			if n := len(ref); n > 0 && r.Back() != ref[n-1] {
				t.Fatalf("op %d: Back = %d, want %d", step, r.Back(), ref[n-1])
			}
			// Rotate once round, reading each element as it passes Front.
			for i, want := range ref {
				if got := r.Front(); got != want {
					t.Fatalf("op %d: element %d = %d, want %d", step, i, got, want)
				}
				r.Push(r.Pop())
			}
		}
	})
}
