package adios

import (
	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// script is a test rank body: its steps run in order, a yielding step
// parking the rank until its wakeup.
type script []cluster.RankCont

func (s *script) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for len(*s) > 0 {
		if stop, ok := (*s)[0].(stopIf); ok && stop(r) {
			*s = nil
			return true
		}
		if !(*s)[0].StepRank(r, c) {
			return false
		}
		*s = (*s)[1:]
	}
	return true
}

// launch starts body(i) on every rank of w.
func launch(w *cluster.World, body func(i int) script) *cluster.Join {
	return w.LaunchCont(func(i int) cluster.RankCont {
		s := body(i)
		return &s
	})
}

// stepFunc adapts a function to a step.
type stepFunc func(r *cluster.Rank, c *simkernel.ContProc) bool

func (f stepFunc) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool { return f(r, c) }

// do is a step that runs fn inline.
func do(fn func(r *cluster.Rank)) cluster.RankCont {
	return stepFunc(func(r *cluster.Rank, _ *simkernel.ContProc) bool { fn(r); return true })
}

// drive is a step that drives an armed machine to completion.
func drive(m simkernel.Cont) cluster.RankCont {
	return stepFunc(func(_ *cluster.Rank, c *simkernel.ContProc) bool { return m.Step(c) })
}

// stopIf is a step that ends the script early when it reports true.
type stopIf func(r *cluster.Rank) bool

func (stopIf) StepRank(*cluster.Rank, *simkernel.ContProc) bool { return true }

// writeStep launches one WriteStep on every rank of w.
func writeStep(w *cluster.World, io *IO, name string, perRank func(rank int) iomethod.RankData, out *StepOut) *cluster.Join {
	return w.LaunchCont(func(int) cluster.RankCont {
		return &WriteStep{IO: io, Step: name, PerRank: perRank, Out: out}
	})
}
