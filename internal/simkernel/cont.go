package simkernel

import (
	"fmt"
	"time"
)

// Continuation bodies: run-to-completion state machines.
//
// Every process body is an explicit state machine (Cont) that the kernel
// loop steps inline. "Yield" means the body arranged its own wakeup — a
// scheduled sleep event, or registration on a waiter list some other
// component will wake — marked the process parked, and returned from Step.
// The next wakeup event re-enters Step, which dispatches on its own program
// counter. "Completion" means Step returned true.
//
// Every simulated behaviour is written once, as a machine, and there is one
// way to write a process: a Cont. A machine drives a nested one in one of
// two ways. A body hands a leaf operation (a pfs client op) to
// ContProc.Call, advance style: it moves its own program counter past the
// call first, and if the op parks, the process parks inside it, so the
// op's wakeups step the op alone and the body is stepped once more, in the
// same resume, when the op completes. The op itself drives no nested
// machine: its target-level steps are server methods run on its own
// program counter. A wait that hops across servers (a pfs flush walking its
// targets) parks the process on a server-owned record instead: the record
// is the event each server fires, carries the wait to the next server, and
// ends it with Proc.Resume, which steps the process in that same event, so
// the op is stepped only where the wait starts and where it ends. Any
// other nested machine (a transport step, the restart reader) is driven by
// calling its Step and yielding whenever it yields. A ContProc's sleeps and
// waits only schedule a wakeup and mark the process parked.
//
// Discipline for Step bodies: they run on the kernel thread, so they must
// not block, must yield only as the last action before returning false,
// and hold no state on the stack across yields — everything lives in the
// Cont value. Bodies run no deferred cleanup: Kernel.Reset drops in-flight
// continuations outright, so any end-of-body signalling (WaitGroup.Done)
// belongs in the machine's final state. reprolint's hotpath analyzer audits every function taking a
// *ContProc parameter as a hot path automatically.

// Cont is a continuation body: a resumable state machine. Step runs the
// machine until it either completes (returns true) or yields (arranges a
// wakeup via c, marks the process parked, and returns false).
type Cont interface {
	Step(c *ContProc) bool
}

// ContProc is the body-side view of a process. It is the same underlying
// Proc (conversion is free) and adds the yield methods: sleeps and pauses
// arrange a wakeup and return immediately, and the body is expected to
// yield right after.
type ContProc Proc

// SpawnCont creates a continuation process that begins stepping body at the
// current virtual time (as a scheduled event, so the caller continues
// first). Dead shells are recycled from the kernel's freelist, so
// steady-state spawning allocates nothing.
func (k *Kernel) SpawnCont(body Cont) *Proc {
	return k.spawn(k.now, 0, false, body)
}

// SpawnContAt is SpawnCont with the first step delayed until absolute
// virtual time at.
func (k *Kernel) SpawnContAt(at Time, body Cont) *Proc {
	return k.spawn(at, 0, false, body)
}

// SpawnDaemon is SpawnCont for a daemon, load that never ends (noise, a
// sampler): it never keeps a run going nor hides a stuck worker.
func (k *Kernel) SpawnDaemon(body Cont) *Proc {
	return k.spawn(k.now, 0, true, body)
}

// SpawnContJob is SpawnCont with a job attribution tag: every storage
// operation the process performs is accounted to job by layers that
// inspect Proc.Job (the file system's per-job traffic counters). Job 0
// means unattributed — plain SpawnCont leaves the tag at 0, and recycled
// shells always have it reset, so attribution never leaks across bodies.
func (k *Kernel) SpawnContJob(job int, body Cont) *Proc {
	if job != int(int32(job)) {
		panic(fmt.Sprintf("simkernel: job tag %d does not fit in 32 bits", job))
	}
	return k.spawn(k.now, int32(job), false, body)
}

// Proc returns the underlying process, for identity and wiring only —
// registering on waiter lists, job inspection.
func (c *ContProc) Proc() *Proc { return (*Proc)(c) }

// Kernel returns the kernel this process belongs to.
func (c *ContProc) Kernel() *Kernel { return c.k }

// Now returns the current virtual time.
//
//repro:hotpath
func (c *ContProc) Now() Time { return c.k.now }

// ID returns the process's unique id within its kernel.
func (c *ContProc) ID() int { return (*Proc)(c).ID() }

// Job returns the process's job attribution tag (0 = unattributed).
//
//repro:hotpath
func (c *ContProc) Job() int { return int(c.job) }

// Pause marks the process parked without scheduling a wakeup: the caller
// has already arranged one (waiter-list registration whose owner will call
// Proc.Wake, a pending StartWrite completion, a record that will call
// Proc.Resume, ...). The body must return false from Step immediately
// after.
//
//repro:hotpath
func (c *ContProc) Pause() { c.state = procParked }

// Call steps m once and reports whether it completed. If it did not, m
// parked the process, and the process stays parked inside m: its wakeups
// step m alone, and once m completes the body is stepped in that same
// resume. The body must yield right after a false return, with its program
// counter already advanced past the call (advance style), and read m's
// result in the state it resumes at. A Call made while another is
// outstanding panics; m drives any machines beneath it by calling their
// Step.
//
//repro:hotpath
func (c *ContProc) Call(m Cont) bool {
	if c.inner != nil {
		(*Proc)(c).fail("called a machine while inside another Call")
	}
	c.inner = m
	if m.Step(c) {
		c.inner = nil
		return true
	}
	return false
}

// Sleep arranges a wakeup after virtual duration d and marks the process
// parked; the body must yield. It always schedules, even for d <= 0.
//
//repro:hotpath
func (c *ContProc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	(*Proc)(c).wakeAt(c.k.now + Time(d))
	c.state = procParked
}

// SleepSeconds is Sleep for a floating-point number of virtual seconds.
//
//repro:hotpath
func (c *ContProc) SleepSeconds(s float64) {
	(*Proc)(c).wakeAt(c.k.now + FromSeconds(s))
	c.state = procParked
}

// SleepUntil arranges a wakeup at absolute virtual time at and marks the
// process parked, reporting true (the body must yield). It is a no-op when
// at is not in the future: it returns false and the body continues inline,
// scheduling no event.
//
//repro:hotpath
func (c *ContProc) SleepUntil(at Time) bool {
	if at <= c.k.now {
		return false
	}
	(*Proc)(c).wakeAt(at)
	c.state = procParked
	return true
}
