package simkernel

import "time"

// script is a test body written as a list of steps: each is a machine
// driven to completion in turn, so a step that yields parks the whole
// script until its wakeup.
type script []Cont

func (s *script) Step(c *ContProc) bool {
	for len(*s) > 0 {
		if !(*s)[0].Step(c) {
			return false
		}
		*s = (*s)[1:]
	}
	return true
}

// run builds a script body from its steps.
func run(steps ...Cont) *script {
	s := script(steps)
	return &s
}

// do is a step that runs fn inline.
func do(fn func()) Cont {
	return contFunc(func(*ContProc) bool { fn(); return true })
}

// once is a step that parks through park on its first Step (when park
// reports that it yielded) and completes on the wakeup.
type once struct {
	park   func(c *ContProc) bool
	parked bool
}

func (o *once) Step(c *ContProc) bool {
	if o.parked {
		return true
	}
	o.parked = o.park(c)
	return !o.parked
}

func sleep(d time.Duration) Cont {
	return &once{park: func(c *ContProc) bool { c.Sleep(d); return true }}
}

func sleepUntil(at Time) Cont {
	return &once{park: func(c *ContProc) bool { return c.SleepUntil(at) }}
}

// suspend parks until someone calls Wake on the process it stores in *p.
func suspend(p **Proc) Cont {
	return &once{park: func(c *ContProc) bool { *p = c.Proc(); c.Pause(); return true }}
}

func acquire(r *Resource) Cont {
	return &once{park: func(c *ContProc) bool { return !r.AcquireCont(c) }}
}
