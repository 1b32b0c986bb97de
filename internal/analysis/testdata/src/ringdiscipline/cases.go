package simkernel

// R1: index staleness across ring mutations.

// cleanScan is the mpisim deliver pattern: find, remove, leave.
func cleanScan(q *Ring, x int) bool {
	for i := 0; i < q.Len(); i++ {
		if q.At(i) == x {
			q.RemoveAt(i)
			return true
		}
	}
	return false
}

// cleanCompensated keeps scanning after a removal by recomputing the index.
func cleanCompensated(q *Ring, bad int) {
	for i := 0; i < q.Len(); i++ {
		if q.At(i) == bad {
			q.RemoveAt(i)
			i--
		}
	}
}

// cleanPush: a tail push keeps logical indices valid.
func cleanPush(q *Ring, i, v int) int {
	before := q.At(i)
	q.Push(v)
	return before + q.At(i)
}

// staleAfterRemove reuses the index past the hole it just made: every
// element at or after i shifted down.
func staleAfterRemove(q *Ring, i int) int {
	v := q.At(i)
	q.RemoveAt(i)
	return v + q.At(i) // want `index i into q is stale`
}

// staleAfterPop reuses an index after the head moved under it.
func staleAfterPop(q *Ring, i int) int {
	v := q.At(i)
	q.Pop()
	return v + q.At(i) // want `index i into q is stale`
}

// staleOneBranch: the mutation happens on SOME path, which is enough.
func staleOneBranch(q *Ring, i int, drop bool) int {
	v := q.At(i)
	if drop {
		q.RemoveAt(i)
	}
	return v + q.At(i) // want `index i into q is stale`
}

// refreshed recomputes the index after the mutation: legal.
func refreshed(q *Ring, i int) int {
	v := q.At(i)
	q.RemoveAt(i)
	i = 0
	return v + q.At(i)
}

// distinctRings: mutating one ring does not stale another's indices.
func distinctRings(a, b *Ring, i int) int {
	v := a.At(i)
	b.Pop()
	return v + a.At(i)
}

// R2: Reset callers.

type store struct {
	q Ring
}

// Reset is a sanctioned caller by name.
func (s *store) Reset() {
	s.q.Reset()
}

// register hands the reset to a hook as a literal: only a Reset method is
// a reset path, so the literal is not sanctioned.
func (s *store) register(onReset func(func())) {
	onReset(func() {
		s.q.Reset() // want `Ring\.Reset discards queued elements`
	})
}

// dropAll is neither: queued elements vanish mid-run.
func dropAll(q *Ring) {
	q.Reset() // want `Ring\.Reset discards queued elements`
}

// waivedReset shows the escape hatch.
func waivedReset(q *Ring) {
	q.Reset() //repro:allow ringdiscipline fixture: drains a scratch ring between test phases
}

// R3: internal field access outside Ring's methods.

func peekRaw(q *Ring) int {
	return q.buf[q.head] // want `direct access to Ring\.buf` `direct access to Ring\.head`
}
