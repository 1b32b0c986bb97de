package simkernel

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestContRunReentryPanics pins the guard behind contblock's Kernel.Run
// rule: a body that re-enters the event loop it is running on fails
// loudly instead of recursing.
func TestContRunReentryPanics(t *testing.T) {
	k := New()
	k.SpawnCont("reentrant", contFunc(func(c *ContProc) bool {
		c.Kernel().Run()
		return true
	}))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Run re-entered") {
			t.Fatalf("re-entering Run did not panic, got %v", r)
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

// BenchmarkContHandoff measures the process handoff cost per sleep/wake
// cycle. Steady state must be allocation-free.
func BenchmarkContHandoff(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.SpawnCont("p", &sleeperCont{left: b.N})
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}
