package simkernel

import "time"

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
// way to write a process: a Cont. A machine drives a nested one (a pfs
// client op, a transport step) by calling its Step and yielding whenever
// it yields. A ContProc's sleeps and waits only schedule a wakeup and mark
// the process parked.
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
func (k *Kernel) SpawnCont(name string, body Cont) *Proc {
	return k.spawn(k.now, name, 0, body)
}

// SpawnContAt is SpawnCont with the first step delayed until absolute
// virtual time at.
func (k *Kernel) SpawnContAt(at Time, name string, body Cont) *Proc {
	return k.spawn(at, name, 0, body)
}

// SpawnContJob is SpawnCont with a job attribution tag: every storage
// operation the process performs is accounted to job by layers that
// inspect Proc.Job (the file system's per-job traffic counters). Job 0
// means unattributed — plain SpawnCont leaves the tag at 0, and recycled
// shells always have it reset, so attribution never leaks across bodies.
func (k *Kernel) SpawnContJob(name string, job int, body Cont) *Proc {
	return k.spawn(k.now, name, job, body)
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

// Name returns the process's diagnostic name.
func (c *ContProc) Name() string { return c.name }

// ID returns the process's unique id within its kernel.
func (c *ContProc) ID() int { return c.id }

// Job returns the process's job attribution tag (0 = unattributed).
//
//repro:hotpath
func (c *ContProc) Job() int { return c.job }

// Pause marks the process parked without scheduling a wakeup: the caller
// has already arranged one (waiter-list registration whose owner will call
// Waker, a pending StartWrite completion, ...). The body must return false
// from Step immediately after.
//
//repro:hotpath
func (c *ContProc) Pause() { c.state = procParked }

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

// Waker returns the process's cached wake closure (see Proc.Waker): calling
// it schedules a resume at the virtual time of the call.
//
//repro:hotpath
func (c *ContProc) Waker() func() { return (*Proc)(c).Waker() }
