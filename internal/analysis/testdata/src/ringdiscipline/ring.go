// Package simkernel is the ringdiscipline fixture's Ring mirror, loaded
// under the real simkernel import path so the analyzer's type key matches.
// Field names mirror the real Ring: buf/head/n are the internals R3 guards.
package simkernel

type Ring struct {
	buf  []int
	head int
	n    int
}

func (r *Ring) Len() int { return r.n }

func (r *Ring) Push(v int) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *Ring) Pop() int {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *Ring) At(i int) int {
	return r.buf[(r.head+i)%len(r.buf)]
}

func (r *Ring) RemoveAt(i int) int {
	v := r.At(i)
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
	}
	r.n--
	return v
}

func (r *Ring) Reset() {
	r.head, r.n = 0, 0
}

func (r *Ring) grow() {
	next := make([]int, 2*len(r.buf)+1)
	for i := 0; i < r.n; i++ {
		next[i] = r.At(i)
	}
	r.buf, r.head = next, 0
}
