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

// Step is the continuation body: re-entering the event loop must be
// flagged, every yield and cont variant must stay silent.
func (m *pumpMachine) Step(c *ContProc) {
	m.k.Run()       // want `Kernel\.Run in a continuation body re-enters the event loop`
	m.k.RunUntil(5) // want `Kernel\.RunUntil in a continuation body re-enters the event loop`

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

// later builds a function literal: its body is part of the machine's code
// and is audited like the rest of it.
func (m *pumpMachine) later() func() {
	return func() {
		<-m.ch // want `channel receive in a continuation body`
	}
}

// boundary is a sanctioned crossing: waived with a reason.
func (m *pumpMachine) boundary() {
	m.k.Run() //repro:allow contblock fixture: a waived crossing stays silent
}
