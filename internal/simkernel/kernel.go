// Package simkernel provides a deterministic discrete-event simulation
// kernel. All higher-level substrates in this repository — the parallel file
// system model, the MPI-like message substrate, the interference generators —
// are built on top of it.
//
// The kernel owns a virtual clock and an event queue, and runs on one
// thread: the event loop fires one event at a time, so a given seed always
// produces the exact same execution. Events scheduled for the same virtual
// time fire in scheduling order (a monotonically increasing sequence number
// breaks ties), which makes message delivery and resource handoff FIFO and
// reproducible.
//
// The event queue is engineered for an allocation-free steady state: a
// calendar structure fronted by a monomorphic 4-ary min-heap of small value
// structs keyed by (time, sequence) references event payloads held in a
// free-listed pool (see calendar.go); an event scheduled for the current
// time skips the heap on a FIFO now lane. Every payload is an EventFirer — a
// closure, a process wakeup or a caller-recycled event object — and all
// three are pointer-shaped, so scheduling boxes nothing. Timer handles carry
// a generation tag so cancelling a handle whose pool slot has been reused is
// a safe no-op. Cancelled events are dropped lazily — at pop time in the
// near tier, wholesale at pour time in the far tiers — and compacted in bulk
// when they outnumber half the queue.
//
// There is one kind of process. A Proc is a shell around one continuation
// body (Cont, cont.go): a run-to-completion state machine the loop steps
// inline on every wakeup, whose yields are ordinary scheduled events. The
// kernel has no goroutine and no channel, and every wait has one entry
// point: a ContProc yield or a primitive's *Cont form.
package simkernel

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no relation to wall-clock time; a simulated
// petascale IO phase of several minutes typically executes in milliseconds.
type Time int64

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a virtual time (interpreted as a span) to a
// time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromSeconds converts floating-point seconds to a virtual time span,
// rounding to the nearest nanosecond. Negative inputs are clamped to zero so
// that tiny negative residues from floating-point rate arithmetic cannot
// schedule events in the past.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	return Time(s*1e9 + 0.5)
}

// String renders the time as seconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.9fs", t.Seconds()) }

// heapItem is one entry of the event queue: the ordering key plus the index
// of the pooled payload. Keeping the queue monomorphic (no interface boxing,
// no per-event pointer) is what lets the hot loop run allocation-free.
type heapItem struct {
	at  Time
	seq uint64
	id  int32
}

// itemLess is the total order on events: time, then scheduling sequence.
func itemLess(a, b heapItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventRec is the pooled payload of a scheduled event.
type eventRec struct {
	ev        EventFirer
	gen       uint32 // bumped on every release; stale Timer handles miss
	pending   bool   // scheduled and not yet fired or reclaimed
	cancelled bool
}

// EventFirer is a scheduled callback. AtEvent carries a caller-owned object
// instead of a closure, so layers that recycle their event records (message
// delivery, repeated timers) schedule without allocating. Fire runs in
// kernel context, exactly like an At callback.
type EventFirer interface {
	Fire()
}

// funcEvent is an At callback as an EventFirer. A func value is one pointer,
// so storing it in the interface does not allocate.
type funcEvent func()

// Fire runs the callback.
func (f funcEvent) Fire() { f() }

// compactMin is the queue length below which lazy-cancel compaction is not
// worth the re-heapify.
const compactMin = 32

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero value is inert. Cancelling an already-fired or
// already-cancelled timer is a no-op: the handle carries the generation of
// the pool slot it was issued for, so it can never affect an event that
// later reuses the slot.
type Timer struct {
	k   *Kernel
	id  int32
	gen uint32
}

// Cancel prevents the timer's event from firing. Safe to call multiple
// times, on the zero Timer, and after the event has fired.
//
//repro:hotpath
func (t Timer) Cancel() {
	if t.k != nil {
		t.k.cancel(t.id, t.gen)
	}
}

// Active reports whether the timer is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool {
	if t.k == nil || int(t.id) >= len(t.k.pool) {
		return false
	}
	rec := &t.k.pool[t.id]
	return rec.gen == t.gen && rec.pending && !rec.cancelled
}

// Kernel is the simulation engine. Create one with New, spawn processes with
// SpawnCont, then call Run. A Kernel must not be shared across concurrently
// running simulations.
type Kernel struct {
	now Time
	seq uint64

	// The event queue is a two-tier calendar (calendar.go): queue is the
	// near tier — a 4-ary min-heap ordered by itemLess holding everything
	// earlier than farStart() — and buckets/overflow are the far tiers,
	// unsorted and poured into the heap as the clock reaches them.
	queue      []heapItem   // near tier: 4-ary min-heap ordered by itemLess
	pool       []eventRec   // event payloads, indexed by heapItem.id
	free       []int32      // reclaimed pool slots
	nCancelled int          // cancelled events still sitting in any tier
	buckets    [][]heapItem // far tier: calWidth-wide unsorted buckets
	overflow   []heapItem   // far tier: beyond the calendar horizon
	nFar       int          // total items across buckets
	calBase    Time         // absolute time of buckets[0]'s left edge
	calWidth   Time         // bucket span
	calCur     int          // first bucket not yet poured
	farEdge    Time         // cached calBase + calCur*calWidth (near/far boundary)

	// lane is the now lane: pool ids of events scheduled at the current
	// time, in scheduling order. They skip the heap; RunUntil interleaves
	// them with heap items at the same time by sequence (see RunUntil).
	lane Ring[int32]

	procs      []*Proc
	idle       []*Proc // recycled process shells, re-armed by the next spawn
	nextProcID int

	running  bool //repro:reset-skip only ever true inside RunUntil, which cannot overlap Reset
	finished bool

	// EventLimit, when positive, aborts Run with a panic after that many
	// events — a guard against accidental unbounded simulations in tests.
	EventLimit uint64 //repro:reset-skip caller-owned guard knob, deliberately survives Reset
}

// New creates an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{calWidth: defaultCalWidth}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// alloc takes a pool slot from the free list, growing the pool only when the
// free list is empty (steady-state scheduling therefore never allocates).
//
//repro:hotpath
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		id := k.free[n-1]
		k.free = k.free[:n-1]
		return id
	}
	k.pool = append(k.pool, eventRec{})
	return int32(len(k.pool) - 1)
}

// release returns a pool slot to the free list, bumping its generation so
// outstanding Timer handles for the old occupant go stale.
//
//repro:hotpath
func (k *Kernel) release(id int32) {
	rec := &k.pool[id]
	rec.ev = nil
	rec.pending = false
	rec.cancelled = false
	rec.gen++
	k.free = append(k.free, id)
}

// heapPush inserts an item into the 4-ary heap q and returns the updated
// slice. Standalone (not a Kernel method) so the calendar's pour path and the
// property tests cross-checking the calendar against the plain heap share the
// exact same code.
//
//repro:hotpath
func heapPush(q []heapItem, it heapItem) []heapItem {
	q = append(q, it) //repro:allow hotpath append-and-return idiom: the caller reassigns the returned slice, so ownership transfers back
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !itemLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	return q
}

// heapSiftDown restores heap order below position i.
//
//repro:hotpath
func heapSiftDown(q []heapItem, i int) {
	n := len(q)
	it := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if itemLess(q[j], q[best]) {
				best = j
			}
		}
		if !itemLess(q[best], it) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = it
}

// heapPopMin removes and returns the earliest item. q must be non-empty.
//
//repro:hotpath
func heapPopMin(q []heapItem) ([]heapItem, heapItem) {
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	if last > 0 {
		heapSiftDown(q, 0)
	}
	return q, top
}

// heapify restores heap order over an arbitrary slice (Floyd's build-heap).
//
//repro:hotpath
func heapify(q []heapItem) {
	if len(q) > 1 {
		// The deepest parent of a 4-ary heap sits at (n-2)/4.
		for i := (len(q) - 2) / 4; i >= 0; i-- {
			heapSiftDown(q, i)
		}
	}
}

// popMin removes and returns the earliest item of the near tier. ensureMin
// must have reported a non-empty queue first.
//
//repro:hotpath
func (k *Kernel) popMin() heapItem {
	q, top := heapPopMin(k.queue)
	k.queue = q
	return top
}

// cancel marks the event (id, gen) cancelled if it is still the pending
// occupant of its slot; the queue entry is dropped lazily — at pop time in
// the near tier, at pour time in the far tiers. When cancelled entries
// outnumber half the queue, all tiers are compacted in one pass.
//
//repro:hotpath
func (k *Kernel) cancel(id int32, gen uint32) {
	if int(id) >= len(k.pool) {
		return
	}
	rec := &k.pool[id]
	if rec.gen != gen || !rec.pending || rec.cancelled {
		return
	}
	rec.cancelled = true
	k.nCancelled++
	if n := k.eventCount(); n >= compactMin && k.nCancelled > n/2 {
		k.compact()
	}
}

// compact removes every cancelled entry from all tiers, re-heapifying the
// near tier. Pop order is unaffected: the heap order is a total order on
// (time, seq), the now lane keeps its order, and the far tiers are
// unordered until poured.
//
//repro:hotpath
func (k *Kernel) compact() {
	for n := k.lane.Len(); n > 0; n-- {
		// One rotation: every live id goes back on the tail in its order.
		if id := k.lane.Pop(); k.pool[id].cancelled {
			k.release(id)
		} else {
			k.lane.Push(id)
		}
	}
	kept := k.queue[:0]
	for _, it := range k.queue {
		if k.pool[it.id].cancelled {
			k.release(it.id)
			continue
		}
		kept = append(kept, it)
	}
	k.queue = kept
	heapify(kept)
	if k.nFar > 0 {
		for b := k.calCur; b < len(k.buckets); b++ {
			live := k.buckets[b][:0]
			for _, it := range k.buckets[b] {
				if k.pool[it.id].cancelled {
					k.release(it.id)
					k.nFar--
					continue
				}
				live = append(live, it)
			}
			k.buckets[b] = live
		}
	}
	if len(k.overflow) > 0 {
		over := k.overflow[:0]
		for _, it := range k.overflow {
			if k.pool[it.id].cancelled {
				k.release(it.id)
				continue
			}
			over = append(over, it)
		}
		k.overflow = over
	}
	k.nCancelled = 0
}

// At schedules fn to run in kernel context at absolute virtual time at.
// Times in the past are clamped to the present. The returned Timer may be
// used to cancel the event.
//
//repro:hotpath
func (k *Kernel) At(at Time, fn func()) Timer {
	return k.AtEvent(at, funcEvent(fn))
}

// AtEvent schedules ev.Fire to run in kernel context at absolute virtual
// time at (clamped to the present). It is At without the closure: the
// caller owns ev and may recycle it once it has fired, so steady-state
// scheduling through a caller-side freelist allocates nothing. An event at
// the present goes on the now lane instead of the heap.
//
//repro:hotpath
func (k *Kernel) AtEvent(at Time, ev EventFirer) Timer {
	id := k.alloc()
	rec := &k.pool[id]
	rec.ev = ev
	rec.pending = true
	k.seq++
	if at <= k.now {
		k.lane.Push(id)
	} else {
		k.enqueue(heapItem{at: at, seq: k.seq, id: id})
	}
	return Timer{k: k, id: id, gen: rec.gen}
}

// After schedules fn to run in kernel context after virtual duration d.
//
//repro:hotpath
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+Time(d), fn)
}

// AfterSeconds schedules fn after a floating-point number of virtual seconds.
//
//repro:hotpath
func (k *Kernel) AfterSeconds(s float64, fn func()) Timer {
	return k.At(k.now+FromSeconds(s), fn)
}

// Run executes events until the queue is empty (or until Stop is called by
// an event). It returns the final virtual time. Processes still parked when
// the queue drains are left suspended; call Shutdown (or Reset) to drop
// them.
func (k *Kernel) Run() Time {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline and returns the
// current virtual time afterwards. Events beyond the deadline remain queued,
// so the simulation may be resumed with a later deadline.
//
// The loop keeps the exact (time, seq) order across the heap and the now
// lane. A heap item at the present was scheduled before the clock got
// there, so its seq is below every lane item's, and it fires first; the far
// tiers never hold an item at the present, because they only hold items at
// or past farEdge and the clock stays below it. The lane drains before any
// pour or clock advance.
//
//repro:hotpath
func (k *Kernel) RunUntil(deadline Time) Time {
	if k.running {
		panic("simkernel: Run re-entered")
	}
	k.running = true
	k.finished = false
	defer func() { k.running = false }() //repro:allow hotpath one closure per RunUntil call, amortised over the whole event loop

	var fired uint64
	for {
		var id int32
		at := k.now
		if k.lane.Len() > 0 && (len(k.queue) == 0 || k.queue[0].at != at) {
			if at > deadline {
				break
			}
			id = k.lane.Pop()
		} else {
			if !k.ensureMin() || k.queue[0].at > deadline {
				break
			}
			top := k.popMin()
			id, at = top.id, top.at
		}
		rec := &k.pool[id]
		if rec.cancelled {
			k.nCancelled--
			k.release(id)
			continue
		}
		ev := rec.ev
		k.release(id)
		k.now = at
		fired++
		if k.EventLimit > 0 && fired > k.EventLimit {
			panic(fmt.Sprintf("simkernel: event limit %d exceeded at t=%v", k.EventLimit, k.now))
		}
		ev.Fire()
		if k.finished {
			break
		}
	}
	return k.now
}

// Stop halts Run after the currently firing event completes. Pending events
// remain queued.
func (k *Kernel) Stop() { k.finished = true }

// Pending reports the number of queued (possibly cancelled) events across
// all tiers.
func (k *Kernel) Pending() int { return k.eventCount() }

// procState tracks a process's lifecycle.
type procState int

const (
	procReady procState = iota // spawned, first wakeup queued
	procRunning
	procParked
	procDone
)

// Proc is a simulation process: a shell around one continuation body that
// the event loop steps on each of the process's wakeups. Shells are
// recycled across Reset through one freelist, so steady-state spawning
// allocates nothing. A body waits through its ContProc (cont.go).
type Proc struct {
	k     *Kernel
	id    int
	job   int // job attribution tag (0 = unattributed); see SpawnContJob
	state procState
	waker func() // lazily built, reused by every Waker call
	cont  Cont   // current body; nil once done or dropped
}

// procWake is the event that resumes a process. It is the Proc itself
// under another method set, so scheduling a wakeup allocates nothing.
type procWake Proc

// Fire resumes the process.
//
//repro:hotpath
func (w *procWake) Fire() { (*Proc)(w).resume() }

// wakeAt schedules a resume of p at absolute time at (clamped to now).
//
//repro:hotpath
func (p *Proc) wakeAt(at Time) { p.k.AtEvent(at, (*procWake)(p)) }

// spawn registers a process running body, re-arming a recycled shell when
// one is free, and schedules its first step at time at.
func (k *Kernel) spawn(at Time, job int, body Cont) *Proc {
	k.nextProcID++
	var p *Proc
	if n := len(k.idle); n > 0 {
		p = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		p = &Proc{k: k}
	}
	p.id, p.job, p.state, p.cont = k.nextProcID, job, procReady, body
	k.procs = append(k.procs, p)
	p.wakeAt(at)
	return p
}

// resume steps the process's body once. Completion is Step returning true;
// otherwise the body must have parked itself (via a yield method on
// ContProc), which is enforced because a body that neither completes nor
// yields would silently leak.
//
//repro:hotpath
func (p *Proc) resume() {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	if p.cont.Step((*ContProc)(p)) {
		if p.state == procParked {
			p.fail("yielded and then reported completion")
		}
		p.state = procDone
		p.cont = nil
		return
	}
	if p.state != procParked {
		p.fail("returned without yielding or completing")
	}
}

// drop ends p's body where it stands. A machine holds no stack, so
// forgetting it is the whole unwind. Reset and Shutdown call it on every
// process; it is a no-op on a finished one.
func (p *Proc) drop() {
	if p.state == procRunning {
		// Impossible outside Run: a running process implies the kernel
		// loop is inside its Step.
		p.fail("still running in Reset or Shutdown")
	}
	p.state = procDone
	p.cont = nil
}

// fail panics with a protocol violation by p, naming the process by its
// id and its body's type. It is the one cold path that formats a process's
// identity, so the hot callers stay free of formatting.
func (p *Proc) fail(what string) {
	panic(fmt.Sprintf("simkernel: process %d (%T) %s", p.id, p.cont, what))
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// ID returns the process's unique id within its kernel.
func (p *Proc) ID() int { return p.id }

// Job returns the process's job attribution tag (0 = unattributed).
//
//repro:hotpath
func (p *Proc) Job() int { return p.job }

// Done reports whether the process has terminated (from kernel context this
// is safe to call at any time).
func (p *Proc) Done() bool { return p.state == procDone }

// Waker returns a function that resumes the suspended process at the
// virtual time of the call (scheduled as an event, preserving deterministic
// ordering). It must be called from kernel or process context of the same
// kernel. The closure is built once per process and reused, so repeated
// Waker calls do not allocate.
//
//repro:hotpath
func (p *Proc) Waker() func() {
	if p.waker == nil {
		p.waker = func() { p.wakeAt(p.k.now) } //repro:allow hotpath cached in p.waker, built once per process
	}
	return p.waker
}

// dropAll drops every registered process.
func (k *Kernel) dropAll() {
	for _, p := range k.procs {
		p.drop()
	}
}

// Shutdown drops every process still in flight. Call it when done with the
// kernel for good; to reuse the kernel for another simulation, call Reset
// instead. The kernel must not be running.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("simkernel: Shutdown during Run")
	}
	k.dropAll()
}

// Reset returns the kernel to its initial state — clock at zero, empty
// event queue, no registered processes — while recycling the process shells
// onto the freelist from which subsequent spawns are re-armed. The pass is:
// drop in-flight bodies, then discard every pending event, then zero the
// clock and counters. A Reset kernel is indistinguishable from a fresh
// New() to simulation code: event ordering is (time, sequence) and both
// restart at zero, process IDs restart at one, and Timer handles from the
// old run are invalidated by a generation bump on their pool slots.
// The kernel must not be running.
func (k *Kernel) Reset() {
	if k.running {
		panic("simkernel: Reset during Run")
	}
	k.dropAll()
	for i, p := range k.procs {
		k.idle = append(k.idle, p)
		k.procs[i] = nil
	}
	k.procs = k.procs[:0]

	// Discard pending events and rebuild the free list over the whole pool,
	// bumping generations of occupied slots so outstanding Timer handles go
	// stale. Slot identity never affects simulation order (events order by
	// (time, sequence) only), so the rebuilt free-list order is harmless.
	k.queue = k.queue[:0]
	k.lane.Reset()
	for i := range k.buckets {
		k.buckets[i] = k.buckets[i][:0]
	}
	k.overflow = k.overflow[:0]
	k.nFar = 0
	k.calBase = 0
	k.calWidth = defaultCalWidth
	k.calCur = 0
	k.farEdge = 0
	k.free = k.free[:0]
	for i := range k.pool {
		rec := &k.pool[i]
		rec.ev = nil
		if rec.pending || rec.cancelled {
			rec.pending = false
			rec.cancelled = false
			rec.gen++
		}
		k.free = append(k.free, int32(i))
	}
	k.nCancelled = 0

	k.now = 0
	k.seq = 0
	k.nextProcID = 0
	k.finished = false
}
