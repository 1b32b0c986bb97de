package mpiio

import (
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// stepCont is one rank's MPI-IO collective step in flight: buffer
// (instantaneous in the model — ADIOS buffers during the compute phase),
// compute collective offsets, and write one contiguous block per rank into
// the cohort's shared file, stripe-aligned so each rank's block maps to
// exactly one storage target. The close is collective per cohort, matching
// MPI_File_close semantics and the paper's "write, flush, and file close"
// timed region.
type stepCont struct {
	m    *Method
	st   *stepState
	rank int
	data iomethod.RankData

	cohort, lo, hi int
	leader         bool

	pc    int
	f     *pfs.File
	total int64
	enc   int64

	op pfs.FileOp

	iomethod.Outcome
}

// BeginStepCont implements iomethod.Method. The machine is carved with
// Reuse and re-armed whole except for its op, whose chunk list is kept as
// scratch.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.getStep(stepName)
	rank := r.Rank()
	cohort := rank / m.cohortSize()
	lo, hi := m.cohortRanks(cohort)
	s := m.machines.Reuse()
	*s = stepCont{
		m: m, st: st, rank: rank, data: data,
		cohort: cohort, lo: lo, hi: hi, leader: rank == lo,
		op: s.op,
	}
	return s
}

// Step drives the rank's participation in the collective step: untimed
// setup (each cohort leader creates its shared file once every rank has
// registered its size), then the timed write and flush, then the cohort's
// collective close, where the leader appends the footer index. A failed
// create fails the step: every rank skips its write, and the cohort closes
// with no footer.
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st := s.m, s.st
	for {
		switch s.pc {
		case 0:
			st.sizes[s.rank] = s.data.TotalBytes()
			st.arrivedWG.Done()
			if s.leader {
				s.pc = 1
			} else {
				st.SetupDone(nil) // only a cohort's leader creates
				s.pc = 3
			}
		case 1:
			if !st.arrivedWG.WaitCont(c) {
				return false
			}
			var stripe int64 = 1
			for i := s.lo; i < s.hi; i++ {
				if st.sizes[i] > stripe {
					stripe = st.sizes[i]
				}
			}
			var off int64
			for i := s.lo; i < s.hi; i++ {
				st.offsets[i] = off
				off += stripe
			}
			s.op.BeginCreate(m.fs, st.fileNames[s.cohort],
				pfs.Layout{OSTs: m.cohortOSTs(s.cohort), StripeSize: stripe})
			s.pc = 2
			if !c.Call(&s.op) {
				return false
			}
		case 2:
			if s.Err = s.op.Err(); s.Err == nil {
				st.Res.AddFile(s.cohort)
				st.files[s.cohort] = s.op.File()
			}
			st.SetupDone(s.Err)
			s.pc = 3
		case 3:
			ok, err := st.WaitSetup(c, m.fs)
			if !ok {
				return false
			}
			if s.Err = err; err != nil {
				s.pc = 5
				continue
			}
			s.f = st.files[s.cohort]
			s.total = s.data.TotalBytes()
			s.op.BeginWrite(s.f, st.offsets[s.rank], s.total)
			s.pc = 4
			if !c.Call(&s.op) {
				return false
			}
		case 4:
			s.pc = 5
			if werr := s.op.Err(); werr != nil {
				// The collective has no recovery path: the rank's block is
				// lost, but the cohort bookkeeping must still complete or
				// every sibling deadlocks in the collective close.
				s.Err = werr
				st.Res.WriteFailures++
			} else {
				st.Res.TotalBytes += float64(s.total)
				st.Res.AddBlock(s.cohort, s.rank, st.offsets[s.rank], s.data)
				s.op.BeginFlush(s.f)
				if !c.Call(&s.op) {
					return false
				}
			}
		case 5:
			st.Wrote(s.rank, c.Now())
			st.writersWG[s.cohort].Done()
			if s.leader {
				s.pc = 6
			} else {
				s.pc = 9
			}
		case 6:
			if !st.writersWG[s.cohort].WaitCont(c) {
				return false
			}
			s.pc = 8 // a failed step has no footer to write
			if s.f != nil {
				// Every block of the cohort is logged: the footer is the
				// cohort's local index.
				s.enc = st.Res.LocalIndexLen(s.cohort)
				s.op.BeginCommit(s.f, s.enc)
				s.pc = 7
				if !c.Call(&s.op) {
					return false
				}
			}
		case 7:
			if err := s.op.Err(); err != nil {
				// Footer lost; the file is closed all the same, so the
				// cohort completes.
				if s.Err == nil {
					s.Err = err
				}
			} else {
				st.Res.IndexBytes += float64(s.enc)
			}
			s.pc = 8
		case 8:
			st.closedWG[s.cohort].Done()
			s.pc = 9
		default:
			if !st.closedWG[s.cohort].WaitCont(c) {
				return false
			}
			s.Res = m.steps.Return(&st.Step, c.Now())
			return true
		}
	}
}
