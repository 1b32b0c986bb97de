package simkernel

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
