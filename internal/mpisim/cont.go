package mpisim

// Rank bodies. A rank body is a state machine run as a simkernel
// continuation: the kernel resumes its Step inline on every wakeup. A
// receive that has to wait registers on the rank's waiter list, and the
// matching delivery event fills it in and wakes the rank.

import (
	"repro/internal/simkernel"
)

// RankCont is a run-to-completion rank body. StepRank is resumed by the
// kernel on every wakeup and follows the simkernel.Cont protocol — return
// true when the rank's work is complete, or arrange a wakeup, mark the
// process parked, and return false to yield.
type RankCont interface {
	StepRank(r *Rank, c *simkernel.ContProc) bool
}

// rankShell adapts a RankCont to simkernel.Cont: it hands the body its rank
// and signals the launch wait group when the body completes.
type rankShell struct {
	r    *Rank
	body RankCont
	wg   *simkernel.WaitGroup
}

func (s *rankShell) Step(c *simkernel.ContProc) bool {
	if !s.body.StepRank(s.r, c) {
		return false
	}
	s.wg.Done()
	return true
}

// LaunchCont spawns one continuation process per rank running mk(i),
// tagged with the world's job, in rank order. It returns a WaitGroup that
// reaches zero when every rank's body has completed; run the kernel to
// drive them.
//
// The rank shells persist on the world and are rebound to the new bodies on
// every call, so a recycled world (see NewWorld) launches its next replica
// without reallocating them. At most one LaunchCont batch may be in flight
// per world at a time.
func (w *World) LaunchCont(mk func(i int) RankCont) *simkernel.WaitGroup {
	n := len(w.ranks)
	wg := new(simkernel.WaitGroup)
	wg.Add(n)
	if cap(w.shells) < n {
		w.shells = make([]rankShell, n)
	}
	w.shells = w.shells[:n]
	for i := 0; i < n; i++ {
		w.shells[i] = rankShell{r: w.ranks[i], body: mk(i), wg: wg}
		w.k.SpawnContJob(w.job, &w.shells[i])
	}
	return wg
}

// RecvOp is a continuation-side receive in flight. The zero value is
// ready; one RecvOp may be reused across sequential receives. Protocol
// (advance style):
//
//	if !r.RecvCont(&op, c, from, tag) {
//	        m.pc = next    // advance PAST the receive before yielding
//	        return false
//	}
//	msg := op.Msg()
//
// and at the top of state `next`, read op.Msg(). A matching queued message
// completes the receive inline (true) with no event scheduled. Use
// AnySource / AnyTag as wildcards; messages from the same source with the
// same tag are received in send order.
type RecvOp struct {
	w      recvWaiter
	msg    Message
	inline bool
}

// RecvCont begins a receive for a continuation body. It reports whether a
// matching message was already queued (completed inline); otherwise c is
// registered as a waiter and marked parked — the body must yield with its
// program counter advanced past the receive, because delivery fills the op
// and wakes the process directly.
func (r *Rank) RecvCont(o *RecvOp, c *simkernel.ContProc, from, tag int) bool {
	if m, ok := r.TryRecv(from, tag); ok {
		o.msg = m
		o.inline = true
		return true
	}
	o.inline = false
	o.w = recvWaiter{from: from, tag: tag, p: c.Proc()}
	r.waiters.Push(&o.w)
	c.Pause()
	return false
}

// Msg returns the received message. Valid after RecvCont returned true, or
// after the wakeup that follows a false return.
func (o *RecvOp) Msg() Message {
	if o.inline {
		return o.msg
	}
	if !o.w.has {
		panic("mpisim: Recv woke without a message")
	}
	return o.w.msg
}
