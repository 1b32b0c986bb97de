package core

import (
	"time"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// stepCont is one rank's adaptive collective step in flight: the untimed
// file setup, the writer role (Algorithm 1) and the join on the SC/C roles
// the rank hosts. The sub-coordinator (Algorithm 2) and coordinator
// (Algorithm 3) pumps are separate continuation machines (pump.go) that
// this machine spawns once the setup barrier passes.
type stepCont struct {
	a    *Adaptive
	st   *stepState
	r    *mpisim.Rank
	rank int
	g    int
	isSC bool
	isC  bool
	data iomethod.RankData

	pc     int
	total  int64
	target int
	offset int64

	scDone *simkernel.WaitGroup
	cDone  *simkernel.WaitGroup

	op   pfs.FileOp
	recv mpisim.RecvOp

	iomethod.Outcome
}

// BeginStepCont implements iomethod.Method. The machine is carved with
// Reuse and re-armed whole except for its op, whose chunk list is kept as
// scratch.
func (a *Adaptive) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := a.getStep(stepName)
	rank := r.Rank()
	g := st.groupOf[rank]
	s := a.machines.Reuse()
	*s = stepCont{
		a: a, st: st, r: r, rank: rank, g: g,
		isSC: st.groups[g][0] == rank, isC: rank == 0,
		data: data,
		op:   s.op,
	}
	return s
}

// Step drives the rank's participation in the collective step. The writer
// waits for a (target, offset) assignment, builds its index from the
// offset, writes, and reports completion to the triggering SC (and the
// target SC if different) before shipping its index to the target SC. A
// write abandoned with ErrTargetDown is reported to the triggering SC
// instead, which requeues the writer; it finishes only when a write lands.
//
//repro:hotpath
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	a, st := s.a, s.st
	for {
		switch s.pc {
		case 0:
			st.dataOf[s.rank] = s.data
			s.pc = 1
			if s.isSC && a.cfg.StaggerOpens > 0 {
				c.Sleep(time.Duration(s.g) * a.cfg.StaggerOpens)
				return false
			}
		case 1:
			if s.isSC {
				t := s.g % len(a.cfg.OSTs)
				s.op.BeginCreate(a.fs, st.fileNames[s.g], pfs.Layout{OSTs: a.cfg.OSTs[t : t+1 : t+1]})
				s.pc = 2
				if !c.Call(&s.op) {
					return false
				}
			} else {
				s.pc = 3
			}
		case 2:
			if err := s.op.Err(); err != nil {
				s.Err = err
				return true
			}
			st.files[s.g] = s.op.File()
			st.Res.AddFile(s.g)
			s.pc = 3
		case 3:
			st.setupDone.Done()
			s.pc = 4
		case 4:
			if !st.setupDone.WaitCont(c) {
				return false
			}
			st.Start(c.Now(), a.fs)
			st.start.Broadcast()

			if s.isSC {
				s.scDone = simkernel.TakeWaitGroup(a.waits, 1)
				a.spawnSC(s.r, st, s.g, s.scDone)
			}
			if s.isC {
				s.cDone = simkernel.TakeWaitGroup(a.waits, 1)
				a.spawnC(s.r, st, s.cDone)
			}

			// Writer role (Algorithm 1), continuation form.
			s.pc = 5
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
				return false
			}
		case 5:
			env := s.recv.Msg().Data.(*scMsg)
			s.total = s.data.TotalBytes()
			s.target = env.target
			s.offset = env.offset
			s.op.BeginWrite(st.files[s.target], s.offset, s.total)
			s.pc = 6
			if !c.Call(&s.op) {
				return false
			}
		case 6:
			if s.op.Err() != nil {
				// Target down: report to the triggering SC (which requeues
				// this writer) and go back to waiting for an assignment.
				st.Res.WriteFailures++
				fl := a.msg(kindWriteFailed)
				fl.writer, fl.source, fl.target = s.rank, s.g, s.target
				s.r.Send(st.groups[s.g][0], tagToSC, fl)
				s.pc = 5
				if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
					return false
				}
				continue
			}
			st.Wrote(s.rank, c.Now())
			st.Res.TotalBytes += float64(s.total)
			if s.target != s.g {
				st.Res.AdaptiveWrites++
			}
			triggeringSC := st.groups[s.g][0]
			targetSC := st.groups[s.target][0]
			done := a.msg(kindWriteComplete)
			done.writer, done.source, done.target, done.bytes = s.rank, s.g, s.target, s.total
			s.r.Send(triggeringSC, tagToSC, done)
			if targetSC != triggeringSC {
				// Each message has its own envelope, so the fan-out is
				// two envelopes.
				done2 := a.msg(kindWriteComplete)
				done2.writer, done2.source, done2.target, done2.bytes = s.rank, s.g, s.target, s.total
				s.r.Send(targetSC, tagToSC, done2)
			}
			// The index travels separately and after the data, so its
			// transfer overlaps the next writer's data (Section III-B.1).
			ib := a.msg(kindIndexBody)
			ib.writer, ib.offset = s.rank, s.offset
			s.r.Send(targetSC, tagToSC, ib)
			s.pc = 7
		case 7:
			if s.isSC && !s.scDone.WaitCont(c) {
				return false
			}
			s.pc = 8
		default:
			if s.isC && !s.cDone.WaitCont(c) {
				return false
			}
			s.Res = a.steps.Return(&st.Step, c.Now())
			return true
		}
	}
}
