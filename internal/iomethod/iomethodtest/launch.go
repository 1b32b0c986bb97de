// Package iomethodtest drives iomethod.Method implementations in tests.
package iomethodtest

import (
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/simkernel"
)

// Body is a rank body that runs the collective output steps Names in order
// through M, each writing Data(r), and hands each step's outcome to Done.
// A failed step ends the body. If Calls is set, each StepRank call counts
// itself there.
type Body struct {
	M     iomethod.Method
	Names []string
	Data  func(r *mpisim.Rank) iomethod.RankData
	Done  func(r *mpisim.Rank, res *iomethod.StepResult, err error)
	Calls *int

	sc iomethod.StepCont
}

// StepRank implements mpisim.RankCont.
func (b *Body) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	if b.Calls != nil {
		*b.Calls++
	}
	for ; len(b.Names) > 0; b.Names = b.Names[1:] {
		if b.sc == nil {
			b.sc = b.M.BeginStepCont(r, b.Names[0], b.Data(r))
		}
		if !b.sc.Step(c) {
			return false
		}
		res, err := b.sc.Result()
		b.sc = nil
		b.Done(r, res, err)
		if err != nil {
			return true
		}
	}
	return true
}

// LaunchSteps starts a Body on every rank of w.
func LaunchSteps(w *mpisim.World, m iomethod.Method, names []string, data func(r *mpisim.Rank) iomethod.RankData, done func(r *mpisim.Rank, res *iomethod.StepResult, err error)) *simkernel.WaitGroup {
	return w.LaunchCont(func(int) mpisim.RankCont { return &Body{M: m, Names: names, Data: data, Done: done} })
}

// LaunchStep starts one collective output step on every rank of w.
func LaunchStep(w *mpisim.World, m iomethod.Method, name string, data func(r *mpisim.Rank) iomethod.RankData, done func(r *mpisim.Rank, res *iomethod.StepResult, err error)) *simkernel.WaitGroup {
	return LaunchSteps(w, m, []string{name}, data, done)
}
