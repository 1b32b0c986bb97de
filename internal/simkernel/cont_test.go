package simkernel

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// mixedLog records every step of the mixed workload with its virtual time.
type mixedLog struct{ lines []string }

func (l *mixedLog) add(k *Kernel, who string, what string) {
	l.lines = append(l.lines, fmt.Sprintf("%v %s %s", k.Now(), who, what))
}

// mixedCont is one worker of the mixed workload: it waits on a latched
// signal, sleeps, contends on a capacity-2 resource, no-ops a past
// SleepUntil and signals a wait-group, logging each step.
type mixedCont struct {
	pc    int
	i     int
	log   *mixedLog
	res   *Resource
	start *Signal
	done  *WaitGroup
}

func (m *mixedCont) Step(c *ContProc) bool {
	k := c.Kernel()
	for {
		switch m.pc {
		case 0: // start.Wait (recall style)
			if !m.start.WaitCont(c) {
				return false
			}
			m.log.add(k, c.Name(), "started")
			m.pc = 1
			c.Sleep(time.Duration(m.i % 3))
			return false
		case 1: // res.Acquire (advance style)
			m.pc = 2
			if !m.res.AcquireCont(c) {
				return false
			}
		case 2:
			m.log.add(k, c.Name(), fmt.Sprintf("acquired job=%d", c.Job()))
			m.pc = 3
			c.SleepSeconds(1e-6)
			return false
		case 3:
			m.res.Release()
			m.pc = 4
			if c.SleepUntil(Time(10)) { // in the past: no yield
				return false
			}
		case 4:
			m.log.add(k, c.Name(), "released")
			m.done.Done()
			return true
		}
	}
}

// runMixed drives n mixedCont workers either as continuation processes
// (SpawnCont) or through Proc.Await on goroutine processes, and returns the
// log plus the number of events the run scheduled.
func runMixed(n int, await bool) ([]string, uint64) {
	k := New()
	log := &mixedLog{}
	res := NewResource(k, 2)
	start := NewSignal(k)
	done := NewWaitGroup(k)
	done.Add(n)
	k.Spawn("starter", func(p *Proc) {
		p.Sleep(5 * time.Nanosecond)
		start.Broadcast()
	})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		m := &mixedCont{i: i, log: log, res: res, start: start, done: done}
		if await {
			k.SpawnJob(name, i+1, func(p *Proc) { p.Await(m) })
		} else {
			k.SpawnContJob(name, i+1, m)
		}
	}
	k.SpawnWait("joiner", done, func() { log.add(k, "joiner", "all done") })
	k.Run()
	k.Shutdown()
	return log.lines, k.seq
}

// TestAwaitMatchesSpawnCont pins the facade contract: the same machines,
// driven through Proc.Await from goroutine processes and through SpawnCont,
// produce an identical (time, event) log and schedule the same number of
// events.
func TestAwaitMatchesSpawnCont(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32} {
		c, cEvents := runMixed(n, false)
		a, aEvents := runMixed(n, true)
		if strings.Join(c, "\n") != strings.Join(a, "\n") || cEvents != aEvents {
			t.Fatalf("n=%d: Await diverges from SpawnCont (%d vs %d events)\n--- SpawnCont ---\n%s\n--- Await ---\n%s",
				n, cEvents, aEvents, strings.Join(c, "\n"), strings.Join(a, "\n"))
		}
	}
}

// sleeperCont sleeps count times, then finishes.
type sleeperCont struct {
	left  int
	after func()
}

func (s *sleeperCont) Step(c *ContProc) bool {
	if s.left > 0 {
		s.left--
		c.Sleep(1)
		return false
	}
	if s.after != nil {
		s.after()
	}
	return true
}

// TestContResetRecyclesShells verifies Reset drops in-flight continuations
// and recycles their shells: a steady spawn → run → reset cycle allocates
// nothing once the freelist is warm.
func TestContResetRecyclesShells(t *testing.T) {
	k := New()
	cycle := func() {
		conts := make([]sleeperCont, 8)
		for i := range conts {
			conts[i].left = 3
			k.SpawnCont("s", &conts[i])
		}
		k.RunUntil(2) // leaves every body mid-flight
		k.Reset()
	}
	cycle()
	if len(k.idle) != 8 {
		t.Fatalf("shell freelist after reset = %d, want 8", len(k.idle))
	}
	shell := k.idle[len(k.idle)-1]
	k.SpawnCont("again", &sleeperCont{left: 1})
	if got := k.procs[len(k.procs)-1]; got != shell {
		t.Fatalf("SpawnCont did not recycle the freelist shell")
	}
	k.Reset()
}

// TestContBlockingCallPanics pins the guard: a continuation body that
// reaches a goroutine-path blocking call must fail loudly, not deadlock.
func TestContBlockingCallPanics(t *testing.T) {
	k := New()
	k.SpawnCont("bad", contFunc(func(c *ContProc) bool {
		c.Proc().Sleep(1) // blocking call on a continuation
		return true
	}))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("blocking call on continuation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "blocking call on continuation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k.Run()
}

// contFunc adapts a plain function to Cont for tests.
type contFunc func(c *ContProc) bool

func (f contFunc) Step(c *ContProc) bool { return f(c) }

// TestContProtocolViolationPanics pins the leak guard: returning false
// without yielding is a protocol bug and must panic.
func TestContProtocolViolationPanics(t *testing.T) {
	k := New()
	k.SpawnCont("leaky", contFunc(func(c *ContProc) bool { return false }))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "without yielding") {
			t.Fatalf("protocol violation panic missing, got %v", r)
		}
	}()
	k.Run()
}

// BenchmarkContHandoff measures the continuation handoff cost per
// sleep/wake cycle — the run-to-completion counterpart of
// BenchmarkProcessHandoff. Steady state must be allocation-free.
func BenchmarkContHandoff(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.SpawnCont("p", &sleeperCont{left: b.N})
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}
