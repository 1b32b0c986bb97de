package mpisim

import (
	"time"

	"repro/internal/simkernel"
)

// script is a rank body written as a list of steps: each is a machine
// driven to completion in turn, so a step that yields parks the rank until
// its wakeup.
type script []simkernel.Cont

func (s *script) StepRank(_ *Rank, c *simkernel.ContProc) bool {
	for len(*s) > 0 {
		if !(*s)[0].Step(c) {
			return false
		}
		*s = (*s)[1:]
	}
	return true
}

// launch starts body(r) as every rank's script.
func launch(w *World, name string, body func(r *Rank) script) *simkernel.WaitGroup {
	return w.LaunchCont(name, func(i int) RankCont {
		s := body(w.ranks[i])
		return &s
	})
}

// stepFunc adapts a function to a step.
type stepFunc func(c *simkernel.ContProc) bool

func (f stepFunc) Step(c *simkernel.ContProc) bool { return f(c) }

// do is a step that runs fn inline.
func do(fn func()) simkernel.Cont {
	return stepFunc(func(*simkernel.ContProc) bool { fn(); return true })
}

// sleep is a step that sleeps for d.
func sleep(d time.Duration) simkernel.Cont {
	slept := false
	return stepFunc(func(c *simkernel.ContProc) bool {
		if slept {
			return true
		}
		slept = true
		c.Sleep(d)
		return false
	})
}

// recv is a step that receives a message matching (from, tag) into *m.
func recv(r *Rank, from, tag int, m *Message) simkernel.Cont {
	var op RecvOp
	started := false
	return stepFunc(func(c *simkernel.ContProc) bool {
		if !started {
			started = true
			if !r.RecvCont(&op, c, from, tag) {
				return false
			}
		}
		*m = op.Msg()
		return true
	})
}
