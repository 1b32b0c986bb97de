package simkernel

import "unsafe"

// slabChunk is the record count of a Slab chunk, and slabChunkBytes caps a
// chunk's size for large records, so a world that builds a handful of
// kilobyte-sized step records does not carve 128 of them. A Take longer
// than a chunk gets a chunk of its own, at least a quarter as long as all
// kept chunks together.
const (
	slabChunk      = 128
	slabChunkBytes = 16 << 10
)

// Slab is a replica-scoped arena: it hands out pointer-stable records and
// contiguous runs of elements carved from chunks, and never recycles one
// until Reset. Reset only rewinds the cursor, so the chunks are kept and a
// reused world that makes the same requests again — the same sizes in the
// same order, as a replica at the same seed does — allocates nothing. A
// long run grows the kept memory by at least a quarter, so long runs whose
// sizes vary from pass to pass (runs sized by a replica's seed) stop
// allocating after a few passes too, instead of adding a chunk for every
// run that no longer fits where its predecessor did. Nothing handed out may
// be used after the next Reset.
//
// The zero value is an empty slab ready for use.
type Slab[T any] struct {
	chunks [][]T //repro:reset-skip kept for the next pass; Reset only rewinds the cursor
	ci     int   // chunk the cursor is in
	off    int   // next free element of chunks[ci]
}

// New hands out one zeroed record.
//
//repro:hotpath
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Take hands out n zeroed contiguous elements. The slice's capacity is n, so
// appending to it cannot run into the next holder's elements.
//
//repro:hotpath
func (s *Slab[T]) Take(n int) []T {
	p := s.carve(n)
	clear(p)
	return p
}

// Reuse hands out one record as its holder before the last Reset left it (a
// never-used record is zero). It is for records whose owner re-arms every
// field it reads and keeps the scratch buffers the rest hold.
//
//repro:hotpath
func (s *Slab[T]) Reuse() *T { return &s.carve(1)[0] }

// Reset rewinds the cursor: everything handed out so far is free again.
func (s *Slab[T]) Reset() {
	s.ci = 0
	s.off = 0
}

// carve advances the cursor past n elements, skipping the tail of a chunk
// too short for them, and appends a chunk when the kept ones run out.
//
//repro:hotpath
func (s *Slab[T]) carve(n int) []T {
	if n <= 0 {
		if n < 0 {
			panic("simkernel: negative slab take")
		}
		return nil
	}
	for ; s.ci < len(s.chunks); s.ci, s.off = s.ci+1, 0 {
		if c := s.chunks[s.ci]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
	}
	var zero T
	size := max(1, min(slabChunk, slabChunkBytes/max(1, int(unsafe.Sizeof(zero)))))
	if n > size {
		kept := 0
		for _, c := range s.chunks {
			kept += len(c)
		}
		size = max(n, kept/4)
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.off = n
	return s.chunks[s.ci][:n:n]
}
