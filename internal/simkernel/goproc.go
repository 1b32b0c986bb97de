package simkernel

import (
	"fmt"
	"runtime"
	"time"
)

// Blocking bodies. Spawn runs a plain func(*Proc) that calls blocking
// methods — Sleep, Suspend, Await, Resource.Acquire, Signal.Wait,
// WaitGroup.Wait. To the kernel such a body is one more machine: goBody runs
// the function on its own goroutine, and its Step hands control to that
// goroutine and waits until the body parks or returns. Only one side of the
// handoff ever runs, so the run stays single-threaded and deterministic.
// Each blocking method is its ContProc form (which arranges the wakeup and
// marks the process parked) followed by park, so a blocking body schedules
// exactly the events the same steps would schedule as a machine.

// goBody is the machine behind a blocking body.
type goBody struct {
	fn func(p *Proc)
	// ch carries the handoff in both directions, strictly alternating: Step
	// sends true to resume the body (halt sends false to unwind it), and
	// the body sends once each time it parks or returns. Nil until the
	// first Step starts the goroutine.
	ch       chan bool
	done     bool // fn has returned or unwound
	panicked any  // fn's panic value, re-raised on the kernel thread
}

// Spawn creates a process that begins executing fn at the current virtual
// time (as a scheduled event, so the caller continues first). The name is
// used in diagnostics only.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, 0, &goBody{fn: fn})
}

// SpawnAt is like Spawn but delays the process's first execution until
// absolute virtual time at.
func (k *Kernel) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	return k.spawn(at, name, 0, &goBody{fn: fn})
}

// SpawnJob is Spawn with a job attribution tag: every storage operation the
// process performs is accounted to job by layers that inspect Proc.Job (the
// file system's per-job traffic counters). Job 0 means unattributed — plain
// Spawn leaves the tag at 0, and recycled shells always have it reset, so
// attribution never leaks across bodies.
func (k *Kernel) SpawnJob(name string, job int, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, job, &goBody{fn: fn})
}

// Step resumes the body's goroutine, starting it on the first call, and
// waits until the body parks (false) or returns (true).
func (g *goBody) Step(c *ContProc) bool {
	if g.ch == nil {
		g.ch = make(chan bool)
		go g.run((*Proc)(c)) //repro:allow contblock the body's own goroutine; Step blocks until it parks, so one side runs at a time
	} else {
		g.ch <- true //repro:allow contblock handoff to the parked body, which runs while the loop waits below
	}
	<-g.ch //repro:allow contblock wait for the body to park or return; this is the adapter's whole job
	if g.panicked != nil {
		panic(fmt.Sprintf("simkernel: process %q panicked: %v", c.name, g.panicked))
	}
	return g.done
}

// run is the body's goroutine.
func (g *goBody) run(p *Proc) {
	defer g.finish()
	g.fn(p)
}

// finish is the body's final handoff, deferred so that it runs on return,
// on a panic, and on the runtime.Goexit that halt triggers.
func (g *goBody) finish() {
	g.panicked = recover()
	g.done = true
	g.ch <- false //repro:allow contblock the body goroutine's last handoff back to the waiting loop
}

// halt unwinds a parked body: its goroutine exits through runtime.Goexit,
// running the body's deferred calls, and halt waits until it has. A body
// that never started has no goroutine; a finished one has already exited.
func (g *goBody) halt() {
	if g.ch != nil && !g.done {
		g.ch <- false //repro:allow contblock tells the parked body to unwind
		<-g.ch        //repro:allow contblock waits for the unwound body's final handoff
	}
}

// park hands control back to the kernel until the wakeup the caller has
// arranged fires. If Reset or Shutdown drops the process instead, the body
// unwinds. Only a blocking body's own goroutine may park.
func (p *Proc) park() {
	g, ok := p.cont.(*goBody)
	if !ok {
		panic("simkernel: blocking call on continuation process " + p.name)
	}
	g.ch <- false
	if !<-g.ch {
		runtime.Goexit()
	}
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) { (*ContProc)(p).Sleep(d); p.park() }

// SleepSeconds suspends the process for a floating-point number of virtual
// seconds.
func (p *Proc) SleepSeconds(s float64) { (*ContProc)(p).SleepSeconds(s); p.park() }

// SleepUntil suspends the process until absolute virtual time at (no-op if
// at is in the past).
func (p *Proc) SleepUntil(at Time) {
	if (*ContProc)(p).SleepUntil(at) {
		p.park()
	}
}

// Suspend parks the process until another component wakes it via the
// returned Waker. Each Waker wakes exactly one Suspend call.
func (p *Proc) Suspend() { (*ContProc)(p).Pause(); p.park() }

// Await drives machine m to completion on the calling blocking body: it
// steps m, and whenever m yields it parks until the wakeup m arranged. This
// is the one blocking facade over the continuation machines; it schedules
// exactly the events SpawnCont would. A machine must not call it — it
// drives m.Step itself.
func (p *Proc) Await(m Cont) {
	for !m.Step((*ContProc)(p)) {
		if p.state != procParked {
			panic("simkernel: machine awaited by " + p.name + " returned without yielding or completing")
		}
		p.park()
	}
}

// Acquire blocks p until a slot is available, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if !r.AcquireCont((*ContProc)(p)) {
		p.park() // Release transferred the slot to us.
	}
}

// Wait blocks p until the signal has been broadcast. If Broadcast already
// happened, Wait returns immediately.
func (s *Signal) Wait(p *Proc) {
	for !s.WaitCont((*ContProc)(p)) {
		p.park()
	}
}

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for !wg.WaitCont((*ContProc)(p)) {
		p.park()
	}
}
