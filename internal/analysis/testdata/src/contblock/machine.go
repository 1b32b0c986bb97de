package simkernel

import (
	"sync"
	"time"
)

// pumpMachine has a *ContProc method, so it is a continuation machine and
// every method below is in contblock's audit scope.
type pumpMachine struct {
	res *Resource
	k   *Kernel
	ch  chan int
	mu  sync.Mutex
	sub subMachine
}

// subMachine is a nested machine the pump drives.
type subMachine struct{ done bool }

func (s *subMachine) Step(c *ContProc) bool { return s.done }

// Step is the continuation body: every goroutine-blocking primitive in it
// must be flagged, every cont variant must stay silent.
func (m *pumpMachine) Step(c *ContProc) {
	p := c.Proc()
	m.res.Acquire(p)     // want `Resource\.Acquire suspends the calling goroutine.*use AcquireCont`
	p.Sleep(time.Second) // want `Proc\.Sleep suspends the calling goroutine.*use ContProc\.Sleep`
	m.k.Run()            // want `Kernel\.Run suspends the calling goroutine`
	p.Await(&m.sub)      // want `Proc\.Await suspends the calling goroutine.*use the machine's Step`

	c.Sleep(time.Second) // cont variant: legal
	c.SleepUntil(5)      // cont variant: legal
	m.res.AcquireCont(c) // cont variant: legal
	m.res.Release()      // non-blocking: legal
	m.sub.Step(c)        // nested machine: legal
}

// helper has no *ContProc parameter but is a method of the machine: the
// receiver propagation keeps it in scope.
func (m *pumpMachine) helper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-loop goroutine`
	m.mu.Lock()                  // want `sync\.Mutex\.Lock in a continuation body`
	m.ch <- 1                    // want `channel send in a continuation body.*wake the receiver with its Waker`
	<-m.ch                       // want `channel receive in a continuation body.*Rank\.RecvCont`
	go m.helper()                // want `go statement in a continuation body`
	select {}                    // want `select in a continuation body`
}

func (m *pumpMachine) drain() {
	for v := range m.ch { // want `range over a channel in a continuation body.*one item per kernel wakeup`
		_ = v
	}
}

// AcquireBoth is a blocking facade: the *Proc parameter marks it as running
// on a blocking body's goroutine, where blocking is the contract.
func (m *pumpMachine) AcquireBoth(p *Proc) {
	m.res.Acquire(p)
}

// spawnHelper hands Spawn a goroutine body literal; the literal's *Proc
// parameter exempts its body.
func (m *pumpMachine) spawnHelper() {
	m.k.Spawn("writer", func(p *Proc) {
		m.res.Acquire(p)
		p.Suspend()
	})
}

// boundary is a sanctioned crossing: waived with a reason.
func (m *pumpMachine) boundary(p *Proc2) {
	m.res.Acquire(nil) //repro:allow contblock this crossing runs on a blocking body's goroutine
}

// Proc2 keeps boundary from matching the *Proc signature exemption, so the
// waiver (not the exemption) is what the fixture exercises.
type Proc2 struct{}
