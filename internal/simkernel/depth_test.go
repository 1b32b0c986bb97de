package simkernel

import (
	"testing"
	"time"
)

// maxHeapDepth is the deepest near heap TestHeapStaysShallow accepts at a
// pop.
const maxHeapDepth = 128

// depthProbe records the near heap's length each time one of its events
// fires, which is right after that event's pop.
type depthProbe struct {
	k     *Kernel
	pops  int
	depth int // deepest heap seen
}

func (p *depthProbe) Fire() {
	p.pops++
	p.depth = max(p.depth, len(p.k.queue))
}

// stormWriter is a barrier-released writer: it fires on the now lane and
// sleeps one write latency, so every writer wakes at the same time.
type stormWriter struct {
	p  *depthProbe
	at Time
}

func (w *stormWriter) Fire() {
	w.p.Fire()
	w.p.k.AtEvent(w.at, w.p)
}

// TestHeapStaysShallow reads the near heap's length at every pop for the two
// shapes that used to land whole in the heap: a barrier storm whose writers
// all wake at one time, and a dense second of timers behind one far timer
// (the calendar spans the far timer, so one bucket holds the whole second).
func TestHeapStaysShallow(t *testing.T) {
	const writers, timers = 16384, 10000
	check := func(t *testing.T, p *depthProbe, wantPops int) {
		t.Helper()
		if p.pops != wantPops {
			t.Fatalf("%d pops, want %d", p.pops, wantPops)
		}
		if p.depth > maxHeapDepth {
			t.Fatalf("near heap held %d items at a pop, want at most %d", p.depth, maxHeapDepth)
		}
	}
	t.Run("same-time storm", func(t *testing.T) {
		k := New()
		p := &depthProbe{k: k}
		w := &stormWriter{p: p, at: Time(2 * time.Millisecond)}
		for range writers {
			k.AtEvent(0, w)
		}
		k.Run()
		check(t, p, 2*writers)
	})
	t.Run("one far timer", func(t *testing.T) {
		k := New()
		p := &depthProbe{k: k}
		k.AtEvent(Time(1000*time.Second), p)
		for i := range timers {
			k.AtEvent(Time(i+1)*Time(time.Second)/timers, p)
		}
		k.Run()
		check(t, p, timers+1)
	})
}
