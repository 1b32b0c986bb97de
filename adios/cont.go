package adios

import (
	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// StepOut collects a collective output step's outcome. Every rank of the
// step shares one StepOut: all of them record the same shared result, and
// any rank's error.
type StepOut struct {
	Result *StepResult
	Err    error
}

// WriteStep is the one-step rank body: open the step, hand over this
// rank's block, collectively close through the IO's transport, and record
// the outcome in Out. Launch one per rank:
//
//	var out adios.StepOut
//	w.LaunchCont(func(i int) cluster.RankCont {
//		return &adios.WriteStep{IO: io, Step: "restart.0001", PerRank: data, Out: &out}
//	})
//	if _, err := c.Run(); err != nil { ... }
//
// A rank that writes several steps arms a fresh WriteStep for each.
type WriteStep struct {
	IO      *IO
	Step    string
	PerRank func(rank int) iomethod.RankData
	Out     *StepOut

	sc iomethod.StepCont // the transport's step, armed on the first StepRank
}

// StepRank drives the rank's step; see mpisim.RankCont. The first call arms
// the transport's step, which schedules no event and draws nothing.
func (m *WriteStep) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	if m.sc == nil {
		m.sc = m.IO.method.BeginStepCont(r, m.Step, m.PerRank(r.Rank()))
	}
	if !m.sc.Step(c) {
		return false
	}
	res, err := m.sc.Result()
	if err != nil {
		m.Out.Err = err
		return true
	}
	m.Out.Result = res
	return true
}
