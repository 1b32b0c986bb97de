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

	create pfs.CreateOp
	write  pfs.WriteOp
	recv   mpisim.RecvOp

	res *iomethod.StepResult
	err error
}

// BeginStepCont implements iomethod.Method. It only arms the machine; all
// simulation work happens in Step. Every rank must begin the step with the
// same stepName. The machine comes from the arena and is re-armed whole
// except for its write op, whose chunk list is kept as scratch.
func (a *Adaptive) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := a.getStep(stepName)
	rank := r.Rank()
	g := st.groupOf[rank]
	s := a.ar.machines.Reuse()
	*s = stepCont{
		a: a, st: st, r: r, rank: rank, g: g,
		isSC: st.groups[g][0] == rank, isC: rank == 0,
		data:  data,
		write: s.write,
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
			st.sizes[s.rank] = s.data.TotalBytes()
			s.pc = 1
			if s.isSC && a.cfg.StaggerOpens > 0 {
				c.Sleep(time.Duration(s.g) * a.cfg.StaggerOpens)
				return false
			}
		case 1:
			if s.isSC {
				s.create.BeginCreate(a.fs, st.fileNames[s.g],
					pfs.Layout{OSTs: []int{a.cfg.OSTs[s.g%len(a.cfg.OSTs)]}})
				s.pc = 2
			} else {
				s.pc = 3
			}
		case 2:
			if !s.create.Step(c) {
				return false
			}
			if err := s.create.Err(); err != nil {
				s.err = err
				return true
			}
			st.files[s.g] = s.create.File()
			s.pc = 3
		case 3:
			st.setupDone.Done()
			s.pc = 4
		case 4:
			if !st.setupDone.WaitCont(c) {
				return false
			}
			if !st.t0Set {
				st.t0 = c.Now()
				st.t0Set = true
				st.res.MDSOpenQueuePeak = a.fs.MDS.Stats.MaxQueue
			}
			st.start.Broadcast()

			if s.isSC {
				s.scDone = simkernel.NewWaitGroup(a.w.Kernel())
				s.scDone.Add(1)
				a.spawnSC(s.r, st, s.g, s.scDone)
			}
			if s.isC {
				s.cDone = simkernel.NewWaitGroup(a.w.Kernel())
				s.cDone.Add(1)
				a.spawnC(s.r, st, s.cDone)
			}

			// Writer role (Algorithm 1), continuation form.
			s.pc = 5
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
				return false
			}
		case 5:
			env := s.recv.Msg().Data.(*scMsg)
			s.total = st.sizes[s.rank]
			s.target = env.target
			s.offset = env.offset
			s.write.BeginWrite(st.files[s.target], s.offset, s.total)
			s.pc = 6
		case 6:
			if !s.write.Step(c) {
				return false
			}
			if s.write.Err() != nil {
				// Target down: report to the triggering SC (which requeues
				// this writer) and go back to waiting for an assignment.
				st.res.WriteFailures++
				fl := a.ar.msg(kindWriteFailed)
				fl.writer, fl.source, fl.target = s.rank, s.g, s.target
				s.r.Send(st.groups[s.g][0], tagToSC, fl)
				s.pc = 5
				if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
					return false
				}
				continue
			}
			st.res.WriterTimes[s.rank] = (c.Now() - st.t0).Seconds()
			st.res.TotalBytes += float64(s.total)
			if s.target != s.g {
				st.res.AdaptiveWrites++
			}
			triggeringSC := st.groups[s.g][0]
			targetSC := st.groups[s.target][0]
			done := a.ar.msg(kindWriteComplete)
			done.writer, done.source, done.target, done.bytes = s.rank, s.g, s.target, s.total
			s.r.Send(triggeringSC, tagToSC, done)
			if targetSC != triggeringSC {
				// Each message has its own envelope, so the fan-out is
				// two envelopes.
				done2 := a.ar.msg(kindWriteComplete)
				done2.writer, done2.source, done2.target, done2.bytes = s.rank, s.g, s.target, s.total
				s.r.Send(targetSC, tagToSC, done2)
			}
			// The index travels separately and after the data, so its
			// transfer overlaps the next writer's data (Section III-B.1).
			ib := a.ar.msg(kindIndexBody)
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
			if el := (c.Now() - st.t0).Seconds(); el > st.res.Elapsed {
				st.res.Elapsed = el
			}
			st.returned++
			if st.returned == a.w.Size() {
				delete(a.steps, st.name)
			}
			s.res = &st.res
			return true
		}
	}
}

// Result implements iomethod.StepCont.
func (s *stepCont) Result() (*iomethod.StepResult, error) { return s.res, s.err }
