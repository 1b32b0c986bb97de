package core

import (
	"fmt"

	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The adaptive method's message pumps — the sub-coordinator (Algorithm 2)
// and coordinator (Algorithm 3) receive loops — as run-to-completion
// continuation state machines. These are the protocol's densest message
// paths: every write in the step funnels a completion through an SC, and
// every adaptive redirect round-trips through C, so they always run as
// continuation processes on the kernel thread, whichever way the rank step
// machines that spawn them are driven.
//
// Shape of both machines:
//
//	state 0: wait for the step's start signal (recall style)
//	loop head: check the exit condition; otherwise feed own target and
//	           begin a receive (advance style — the wake resumes at the
//	           handler state, which reads the completed RecvOp)
//	handler:   switch on the envelope kind, loop
//	epilogue:  a pfs.FileOp commit (ContProc.Call) that writes, flushes
//	           and closes the index, final send, done.Done()
//
// Like every continuation body, the machines signal completion (done.Done())
// in their final state rather than via defer, and they never yield without
// either parking in a primitive or returning true.

// scCont is the sub-coordinator loop (Algorithm 2) for one writer group.
type scCont struct {
	a    *Adaptive
	st   *stepState
	r    *mpisim.Rank
	g    int
	done *simkernel.WaitGroup

	pc             int
	waiting        simkernel.Ring[int] // writers not yet signalled
	myOffset       int64
	activeOnMyFile int
	completedOwn   int
	missingIndices int
	scCompleteSent bool
	loopDone       bool
	// ownDead latches when a write to our own file fails with
	// ErrTargetDown: stop feeding the own file and probe again after a
	// backoff (the timeout distinguishes dead from merely slow — slow
	// writes complete, dead ones fail). Waiting writers remain available
	// for adaptive redirection to healthy targets meanwhile.
	ownDead bool
	encLen  int64

	recv mpisim.RecvOp
	op   pfs.FileOp
}

// coordRank hosts the coordinator: the adaptive method pins C to rank 0.
const coordRank = 0

// arm readies the machine for one step. The machine is re-armed whole
// except for its waiting ring's backing array and its op, whose chunk
// list is kept as scratch.
func (s *scCont) arm(a *Adaptive, r *mpisim.Rank, st *stepState, g int, done *simkernel.WaitGroup) {
	s.waiting.Reset() //repro:allow ringdiscipline re-arming a recycled machine: a replica abandoned mid-step can leave writers queued
	*s = scCont{a: a, st: st, r: r, g: g, done: done, waiting: s.waiting, op: s.op}
	for _, w := range st.groups[g] {
		s.waiting.Push(w)
	}
}

// retryOwn sends the SC its own backoff probe (kindRetryOwn).
func (s *scCont) retryOwn() {
	env := s.a.msg(kindRetryOwn)
	s.r.SendFrom(s.r.Rank(), s.r.Rank(), tagToSC, env)
}

// signalNext is Algorithm 2 line 2: keep our own target fed, up to
// WritersPerTarget concurrent writers.
func (s *scCont) signalNext() {
	if s.ownDead {
		return
	}
	for s.activeOnMyFile < s.a.cfg.WritersPerTarget && s.waiting.Len() > 0 {
		wtr := s.waiting.Pop()
		env := s.a.msg(kindWriteGo)
		env.target, env.offset = s.g, s.myOffset
		s.r.SendFrom(s.r.Rank(), wtr, tagToWriter, env)
		s.myOffset += s.st.dataOf[wtr].TotalBytes()
		s.activeOnMyFile++
	}
}

// handle processes one protocol message.
func (s *scCont) handle(env *scMsg) {
	a, st, g, r := s.a, s.st, s.g, s.r
	switch env.kind {
	case kindWriteComplete:
		if env.source == g && env.target != g {
			// One of mine completed an adaptive write elsewhere:
			// forward to C (Algorithm 2 line 6).
			ad := a.msg(kindAdaptiveDone)
			ad.source, ad.target, ad.bytes = g, env.target, env.bytes
			r.SendFrom(r.Rank(), coordRank, tagToC, ad)
			s.completedOwn++
		}
		if env.target == g {
			// A write to my file finished: slot free, and an index
			// body is now owed to me (lines 8–11).
			if env.source == g {
				s.activeOnMyFile--
				s.completedOwn++
			}
			s.missingIndices++
		}
		if s.completedOwn == len(st.groups[g]) && !s.scCompleteSent {
			s.scCompleteSent = true
			sc := a.msg(kindSCComplete)
			sc.group, sc.offset = g, s.myOffset
			r.SendFrom(r.Rank(), coordRank, tagToC, sc)
		}
	case kindIndexBody:
		// The writer's block is in my file: log it.
		st.Res.AddBlock(g, env.writer, env.offset, st.dataOf[env.writer])
		s.missingIndices--
	case kindWriteFailed:
		// The writer's assigned target died past its timeout:
		// requeue the writer for another assignment.
		s.waiting.Push(env.writer)
		if env.target == g {
			// Our own target. Free the slot, latch ownDead, and
			// schedule a retry probe one timeout from now.
			s.activeOnMyFile--
			if !s.ownDead {
				s.ownDead = true
				a.w.Kernel().AfterSeconds(a.fs.Cfg.DeadTimeout, s.retryOwn)
			}
		} else {
			// A failed adaptive redirect: release C's request slot
			// and let it blacklist the target (Algorithm 3 keeps the
			// offset unchanged — nothing landed).
			af := a.msg(kindAdaptiveFailed)
			af.source, af.target = g, env.target
			r.SendFrom(r.Rank(), coordRank, tagToC, af)
		}
	case kindRetryOwn:
		s.ownDead = false
	case kindAdaptiveStart:
		if s.waiting.Len() == 0 {
			wb := a.msg(kindWritersBusy)
			wb.group, wb.target = g, env.target
			r.SendFrom(r.Rank(), coordRank, tagToC, wb)
		} else {
			wtr := s.waiting.Pop()
			wg := a.msg(kindWriteGo)
			wg.target, wg.offset = env.target, env.offset
			r.SendFrom(r.Rank(), wtr, tagToWriter, wg)
		}
	case kindOverallComplete:
		s.loopDone = true
	default:
		panic(fmt.Sprintf("core: SC[g%d] unexpected message kind %d", g, env.kind))
	}
}

// Step drives the sub-coordinator.
//
//repro:hotpath
func (s *scCont) Step(c *simkernel.ContProc) bool {
	a, st := s.a, s.st
	for {
		switch s.pc {
		case 0:
			if !st.start.WaitCont(c) {
				return false
			}
			s.pc = 1
		case 1:
			if s.loopDone && s.missingIndices == 0 {
				s.pc = 3
				continue
			}
			if !s.loopDone {
				s.signalNext()
			}
			s.pc = 2
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToSC) {
				return false
			}
		case 2:
			env := s.recv.Msg().Data.(*scMsg)
			s.handle(env)
			s.pc = 1
		case 3:
			// Algorithm 2 epilogue: every index body is in, so the step's
			// log holds my file's local index; write it and send it to C.
			s.encLen = st.Res.LocalIndexLen(s.g)
			s.op.BeginCommit(st.files[s.g], s.encLen)
			s.pc = 4
			if !c.Call(&s.op) {
				return false
			}
		default:
			if s.op.Err() != nil {
				// The on-disk footer is lost with its target; the in-memory
				// index still travels to C, so the data stays findable.
				st.Res.WriteFailures++
			} else {
				st.Res.IndexBytes += float64(s.encLen)
			}
			env := a.msg(kindLocalIndex)
			env.group = s.g
			s.r.SendFrom(s.r.Rank(), coordRank, tagToC, env)
			s.done.Done()
			return true
		}
	}
}

// cCont is the coordinator loop (Algorithm 3).
type cCont struct {
	a    *Adaptive
	st   *stepState
	r    *mpisim.Rank
	done *simkernel.WaitGroup

	pc          int
	phase       []groupPhase
	offsets     []int64   // file-end offsets, valid once complete
	targetFree  []int     // free write slots on completed targets
	deadTarget  []bool    // targets blacklisted by a failed adaptive write
	speed       []float64 // observed bandwidth per target (HistoryAware)
	idle        []int     // scratch for dispatch's idle-target scan
	cursor      int       // rotation over SCs, to spread requests
	outstanding int       // in-flight adaptive requests
	completes   int
	gathered    int
	tStart      simkernel.Time
	gf          *pfs.File
	encLen      int64

	recv mpisim.RecvOp
	op   pfs.FileOp
}

// arm readies the coordinator machine for one step, carving its per-group
// slices from the kernel's slabs; idle is appended to within the capacity
// of one run.
func (s *cCont) arm(a *Adaptive, r *mpisim.Rank, st *stepState, done *simkernel.WaitGroup) {
	numGroups := len(st.groups)
	k := a.w.Kernel()
	ints := simkernel.Local[simkernel.Slab[int]](k)
	*s = cCont{
		a: a, st: st, r: r, done: done,
		phase:      simkernel.Local[simkernel.Slab[groupPhase]](k).Take(numGroups),
		offsets:    simkernel.Local[simkernel.Slab[int64]](k).Take(numGroups),
		targetFree: ints.Take(numGroups),
		deadTarget: simkernel.Local[simkernel.Slab[bool]](k).Take(numGroups),
		speed:      simkernel.Local[simkernel.Slab[float64]](k).Take(numGroups),
		idle:       ints.Take(numGroups)[:0],
	}
}

// nextWritingSC returns the next group in writing phase, rotating, or -1.
func (s *cCont) nextWritingSC() int {
	numGroups := len(s.st.groups)
	for i := 0; i < numGroups; i++ {
		gg := (s.cursor + i) % numGroups
		if s.phase[gg] == phaseWriting {
			s.cursor = (gg + 1) % numGroups
			return gg
		}
	}
	return -1
}

// dispatch pairs idle completed targets with writing SCs ("adaptive writing
// requests are spread evenly among the sub coordinators"). Targets are
// served in scan order or — with HistoryAware — fastest-first by observed
// bandwidth.
func (s *cCont) dispatch() {
	if s.a.cfg.DisableAdaptation {
		return
	}
	s.idle = s.idle[:0]
	for t := 0; t < len(s.phase); t++ {
		if s.phase[t] == phaseComplete && s.targetFree[t] > 0 && !s.deadTarget[t] {
			s.idle = append(s.idle, t)
		}
	}
	if s.a.cfg.HistoryAware {
		sortByDesc(s.idle, s.speed)
	}
	for _, t := range s.idle {
		for s.targetFree[t] > 0 {
			sc := s.nextWritingSC()
			if sc < 0 {
				return
			}
			s.targetFree[t]--
			s.outstanding++
			env := s.a.msg(kindAdaptiveStart)
			env.target, env.offset = t, s.offsets[t]
			s.r.SendFrom(coordRank, s.st.groups[sc][0], tagToSC, env)
			// The offset advances only at completion; one request
			// in flight per target keeps offsets consistent.
		}
	}
}

// handle processes one protocol message.
func (s *cCont) handle(env *scMsg) {
	switch env.kind {
	case kindSCComplete:
		s.phase[env.group] = phaseComplete
		s.offsets[env.group] = env.offset
		if el := (s.a.w.Kernel().Now() - s.tStart).Seconds(); el > 0 {
			s.speed[env.group] = float64(env.offset) / el
		}
		// Adaptive writes to a completed file stay serialised (one
		// request in flight per target) because the next append
		// offset is only learned from the completion report. The
		// WritersPerTarget generalisation applies to a group's own
		// file, as in the paper.
		s.targetFree[env.group] = 1
		s.completes++
		s.dispatch()
	case kindAdaptiveDone:
		s.offsets[env.target] += env.bytes
		s.targetFree[env.target]++
		s.outstanding--
		s.dispatch()
	case kindAdaptiveFailed:
		// The redirect target is dead: blacklist it (its slot is not
		// returned — nothing can land there) and redispatch the
		// requeued writer elsewhere. A dead target stays blacklisted
		// for the rest of the step; the conservative choice costs at
		// most the work it could have absorbed after reviving.
		s.deadTarget[env.target] = true
		s.outstanding--
		s.dispatch()
	case kindWritersBusy:
		// Guard against the race where the SC completed (and we
		// already marked it so) between our request and its refusal:
		// never downgrade a completed group.
		if s.phase[env.group] == phaseWriting {
			s.phase[env.group] = phaseBusy
		}
		s.targetFree[env.target]++
		s.outstanding--
		s.dispatch()
	default:
		panic(fmt.Sprintf("core: C unexpected message kind %d", env.kind))
	}
}

// Step drives the coordinator.
//
//repro:hotpath
func (s *cCont) Step(c *simkernel.ContProc) bool {
	a, st := s.a, s.st
	numGroups := len(st.groups)
	for {
		switch s.pc {
		case 0:
			if !st.start.WaitCont(c) {
				return false
			}
			s.tStart = c.Now()
			s.pc = 1
		case 1:
			if s.completes >= numGroups && s.outstanding == 0 {
				s.pc = 3
				continue
			}
			s.pc = 2
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToC) {
				return false
			}
		case 2:
			env := s.recv.Msg().Data.(*scMsg)
			s.handle(env)
			s.pc = 1
		case 3:
			// Release the sub-coordinators to write their local indices.
			for g := 0; g < numGroups; g++ {
				env := a.msg(kindOverallComplete)
				s.r.SendFrom(coordRank, st.groups[g][0], tagToSC, env)
			}
			s.pc = 4
		case 4:
			// Gather the local indices; the step's log then holds the
			// global index, so write it.
			if s.gathered < numGroups {
				s.pc = 5
				if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToC) {
					return false
				}
				continue
			}
			if a.cfg.NoGlobalIndex {
				s.done.Done()
				return true
			}
			s.encLen = st.Res.GlobalIndexLen()
			s.op.BeginCreate(a.fs, st.gidxName, pfs.Layout{StripeCount: 1})
			s.pc = 6
			if !c.Call(&s.op) {
				return false
			}
		case 5:
			env := s.recv.Msg().Data.(*scMsg)
			if env.kind != kindLocalIndex {
				panic(fmt.Sprintf("core: C expected local index, got kind %d", env.kind))
			}
			s.gathered++
			s.pc = 4
		case 6:
			if err := s.op.Err(); err != nil {
				panic(err)
			}
			s.gf = s.op.File()
			s.op.BeginCommit(s.gf, s.encLen)
			s.pc = 7
			if !c.Call(&s.op) {
				return false
			}
		default:
			if s.op.Err() != nil {
				// Global index lost; the per-file indices (and the step's
				// Index) survive, matching the paper's interim deployment.
				st.Res.WriteFailures++
			} else {
				st.Res.IndexBytes += float64(s.encLen)
			}
			s.done.Done()
			return true
		}
	}
}
