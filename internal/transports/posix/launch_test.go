package posix

import (
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/simkernel"
)

// stepRank is a test rank body: one collective output step through m,
// writing data(r), whose outcome goes to done.
type stepRank struct {
	m    iomethod.Method
	name string
	data func(r *mpisim.Rank) iomethod.RankData
	done func(r *mpisim.Rank, res *iomethod.StepResult, err error)
	sc   iomethod.StepCont
}

func (s *stepRank) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	if s.sc == nil {
		s.sc = s.m.BeginStepCont(r, s.name, s.data(r))
	}
	if !s.sc.Step(c) {
		return false
	}
	res, err := s.sc.Result()
	s.done(r, res, err)
	return true
}

// launchStep starts one collective output step on every rank of w.
func launchStep(w *mpisim.World, m iomethod.Method, name string, data func(r *mpisim.Rank) iomethod.RankData, done func(r *mpisim.Rank, res *iomethod.StepResult, err error)) *simkernel.WaitGroup {
	return w.LaunchCont("app", func(int) mpisim.RankCont {
		return &stepRank{m: m, name: name, data: data, done: done}
	})
}
