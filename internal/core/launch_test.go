package core

import (
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/simkernel"
)

// stepRank is a test rank body: it runs the collective output steps names
// in order through m, each writing data(r), and hands every step's outcome
// to done. A failed step ends the body.
type stepRank struct {
	m     iomethod.Method
	names []string
	data  func(r *mpisim.Rank) iomethod.RankData
	done  func(r *mpisim.Rank, res *iomethod.StepResult, err error)
	i     int
	sc    iomethod.StepCont
}

func (s *stepRank) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	for s.i < len(s.names) {
		if s.sc == nil {
			s.sc = s.m.BeginStepCont(r, s.names[s.i], s.data(r))
		}
		if !s.sc.Step(c) {
			return false
		}
		res, err := s.sc.Result()
		s.sc = nil
		s.i++
		s.done(r, res, err)
		if err != nil {
			return true
		}
	}
	return true
}

// launchSteps starts a stepRank on every rank of w.
func launchSteps(w *mpisim.World, m iomethod.Method, names []string, data func(r *mpisim.Rank) iomethod.RankData, done func(r *mpisim.Rank, res *iomethod.StepResult, err error)) *simkernel.WaitGroup {
	return w.LaunchCont("app", func(int) mpisim.RankCont {
		return &stepRank{m: m, names: names, data: data, done: done}
	})
}

// launchStep starts one collective output step on every rank of w.
func launchStep(w *mpisim.World, m iomethod.Method, name string, data func(r *mpisim.Rank) iomethod.RankData, done func(r *mpisim.Rank, res *iomethod.StepResult, err error)) *simkernel.WaitGroup {
	return launchSteps(w, m, []string{name}, data, done)
}
