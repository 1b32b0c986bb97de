package adios

import (
	"fmt"

	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// Rank bodies are continuation machines (cluster.World.LaunchCont): the
// kernel steps them inline on every wakeup. A collective close is the
// transport's step machine, armed by File.BeginCloseCont; WriteStep is the
// whole one-step rank body built on it.

// CloseCont is a collective close in flight: the transport's step machine
// for one rank. The zero value is ready; one CloseCont may be reused
// across sequential steps. Arm it with File.BeginCloseCont, drive it with
// Step (advance style — move the machine's program counter past the close
// before yielding), then read Result.
type CloseCont struct {
	io *IO
	sc iomethod.StepCont
}

// BeginCloseCont arms cc to perform this file's collective output through
// the configured transport. The file is consumed: a second close of the
// same handle panics.
func (f *File) BeginCloseCont(cc *CloseCont) {
	if f.done {
		panic(fmt.Sprintf("adios: double Close on step %q", f.name))
	}
	f.done = true
	cc.io = f.io
	if len(f.vars) > 0 {
		// The variables declared with Write are this rank's own shape.
		f.data = iomethod.NewShape(nil, f.vars...).Rank(f.rank.Rank())
	}
	cc.sc = f.io.method.BeginStepCont(f.rank, f.name, f.data)
}

// Step drives the collective close; see simkernel.Cont.
//
//repro:hotpath
func (cc *CloseCont) Step(c *simkernel.ContProc) bool { return cc.sc.Step(c) }

// Result returns the step's shared result (fully populated once all ranks
// have closed) and this rank's error; valid once Step has returned true.
// The ranks of one step share the returned wrapper.
func (cc *CloseCont) Result() (*StepResult, error) {
	res, err := cc.sc.Result()
	if err != nil {
		return nil, err
	}
	if last := cc.io.last; last != nil && last.StepResult == res {
		return last, nil
	}
	cc.io.last = &StepResult{StepResult: res}
	return cc.io.last, nil
}

// StepOut collects a collective output step's outcome. Every rank of the
// step shares one StepOut: all of them record the same shared result, and
// any rank's error.
type StepOut struct {
	Result *StepResult
	Err    error
}

// WriteStep is the one-step rank body: open the step, buffer this rank's
// variables, collectively close, and record the outcome in Out. Launch one
// per rank:
//
//	var out adios.StepOut
//	j := w.LaunchCont(func(i int) cluster.RankCont {
//		return &adios.WriteStep{IO: io, Step: "restart.0001", PerRank: data, Out: &out}
//	})
//	c.RunUntilDone(j)
type WriteStep struct {
	IO      *IO
	Step    string
	PerRank func(rank int) iomethod.RankData
	Out     *StepOut

	pc int
	cc CloseCont
}

// StepRank drives the rank's step; see mpisim.RankCont.
//
//repro:hotpath
func (m *WriteStep) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			f := m.IO.Open(r, m.Step)
			f.WriteData(m.PerRank(r.Rank()))
			f.BeginCloseCont(&m.cc)
			m.pc = 1
		default:
			if !m.cc.Step(c) {
				return false
			}
			rr, err := m.cc.Result()
			if err != nil {
				m.Out.Err = err
				return true
			}
			m.Out.Result = rr
			return true
		}
	}
}
