package simkernel

// Ring is a growable FIFO ring buffer. Push appends at the tail, Pop removes
// from the head, and RemoveFirst removes the oldest match from the middle
// while preserving order — all without the O(n) copy-shift a plain slice
// queue pays on every dequeue. No method takes or returns an element index,
// so a caller cannot hold one across a mutation that shifts it. Capacity is
// always a power of two so index wrap is a mask, and the backing array is
// retained across Reset so a reused world's queues are allocation-free at
// steady state.
//
// The zero value is an empty ring ready for use.
type Ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int
	n    int
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, growing the backing array only when full
// (steady-state queueing therefore never allocates).
//
//repro:hotpath
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
//
//repro:hotpath
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("simkernel: Pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns the head element (the next Pop) without removing it. It
// panics on an empty ring.
//
//repro:hotpath
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("simkernel: Front of empty ring")
	}
	return r.buf[r.head]
}

// Back returns the tail element (the last Push) without removing it. It
// panics on an empty ring.
//
//repro:hotpath
func (r *Ring[T]) Back() T {
	if r.n == 0 {
		panic("simkernel: Back of empty ring")
	}
	return r.at(r.n - 1)
}

// RemoveFirst removes and returns the element nearest the head for which
// match(key, element) holds, preserving the order of the rest; ok is false,
// and the ring untouched, when nothing matches. Pass a top-level match
// function and carry what it compares in key, so the call allocates nothing.
//
//repro:hotpath
func RemoveFirst[T, K any](r *Ring[T], key K, match func(K, T) bool) (v T, ok bool) {
	for i, n := 0, r.Len(); i < n; i++ {
		if match(key, r.at(i)) {
			return r.removeAt(i), true
		}
	}
	return v, false
}

// at returns the i-th element from the head (0 is the next Pop).
//
//repro:hotpath
func (r *Ring[T]) at(i int) T {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// removeAt removes and returns the i-th element from the head, preserving
// the order of the rest. It shifts whichever side of the removal point is
// shorter, so head and tail removals are O(1) and the worst case is n/2.
//
//repro:hotpath
func (r *Ring[T]) removeAt(i int) T {
	mask := len(r.buf) - 1
	v := r.buf[(r.head+i)&mask]
	var zero T
	if i < r.n-1-i {
		// Shift the head side forward by one.
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.buf[r.head] = zero
		r.head = (r.head + 1) & mask
	} else {
		// Shift the tail side back by one.
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.buf[(r.head+r.n-1)&mask] = zero
	}
	r.n--
	return v
}

// Reset empties the ring, zeroing the occupied slots (dropping any pointers
// they hold) while keeping the backing array for reuse.
func (r *Ring[T]) Reset() {
	var zero T
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&mask] = zero
	}
	r.head = 0
	r.n = 0
}

// grow doubles the backing array (minimum 8) and relinearizes the contents
// at offset zero.
func (r *Ring[T]) grow() {
	newCap := 8
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	nb := make([]T, newCap)
	if r.n > 0 {
		mask := len(r.buf) - 1
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&mask]
		}
	}
	r.buf = nb
	r.head = 0
}
