package simkernel

// This file provides the synchronization primitives used by higher layers:
// counted resources for queueing servers (e.g. the metadata server),
// broadcast signals, and wait groups. A process waits on one through the
// primitive's *Cont method.

// Resource is a counted FIFO resource: up to Capacity holders at a time,
// additional acquirers queue in arrival order. It models service points such
// as the metadata server's request slots.
type Resource struct {
	k        *Kernel //repro:reset-skip immutable wiring to the owning kernel
	capacity int
	inUse    int
	waiters  Ring[*Proc]

	// MaxQueue tracks the high-water mark of the wait queue, useful for
	// diagnosing contention in experiments.
	MaxQueue int
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		panic("simkernel: resource capacity must be >= 1")
	}
	return &Resource{k: k, capacity: capacity}
}

// Release frees a slot, waking the longest-waiting acquirer if any. Callable
// from both process and kernel context.
//
//repro:hotpath
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simkernel: Release without Acquire")
	}
	if r.waiters.Len() > 0 {
		// Slot transfers directly: inUse stays constant.
		r.waiters.Pop().wakeAt(r.k.now)
		return
	}
	r.inUse--
}

// Reset returns the resource to its freshly constructed state with the given
// capacity, dropping any queued waiters (their processes must already have
// been dropped by Kernel.Reset). It lets a reused world re-arm its service
// points without reallocating them.
func (r *Resource) Reset(capacity int) {
	if capacity < 1 {
		panic("simkernel: resource capacity must be >= 1")
	}
	r.capacity = capacity
	r.inUse = 0
	r.waiters.Reset()
	r.MaxQueue = 0
}

// InUse reports the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting acquirers.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Signal is a broadcast condition: processes wait in WaitCont until some
// component calls Broadcast, which wakes all of them.
type Signal struct {
	k       *Kernel
	waiters []*Proc
	fired   bool
}

// NewSignal creates a signal bound to kernel k.
func NewSignal(k *Kernel) *Signal {
	return &Signal{k: k}
}

// Broadcast wakes all waiters and latches the signal: subsequent WaitCont
// calls return true at once. Callable from both process and kernel context.
func (s *Signal) Broadcast() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w.wakeAt(s.k.now)
	}
	s.waiters = nil
}

// Fired reports whether Broadcast has been called.
func (s *Signal) Fired() bool { return s.fired }

// WaitGroup counts outstanding work items; WaitCont waits until the count
// reaches zero. Unlike sync.WaitGroup it is single-threaded under the
// kernel's handoff discipline and allows multiple waiters.
type WaitGroup struct {
	k       *Kernel
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a wait group bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{k: k}
}

// Add increments the counter by n (n may be negative; Done is Add(-1)).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("simkernel: negative WaitGroup counter")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		for _, w := range wg.waiters {
			w.wakeAt(wg.k.now)
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Waits. Each comes in one of two shapes:
//
//   - Recall style (WaitCont on WaitGroup and Signal): when blocked, the
//     primitive registers the process and returns false; the body yields
//     with its program counter unchanged, so the wakeup re-enters the same
//     call, which re-checks the condition.
//   - Advance style (AcquireCont): a false return still transfers state on
//     wake (Release hands the slot to the woken waiter directly), so the
//     body must advance its program counter past the call before yielding —
//     re-calling after the wake would acquire twice.

// WaitCont waits for the counter to reach zero, recall style: it reports
// whether the counter is zero, registering c as a waiter and marking it
// parked otherwise. On false the body must yield and re-call on wake.
//
//repro:hotpath
func (wg *WaitGroup) WaitCont(c *ContProc) bool {
	if wg.count > 0 {
		wg.waiters = append(wg.waiters, (*Proc)(c))
		c.Pause()
		return false
	}
	return true
}

// SpawnWait spawns a continuation process that waits for wg to reach zero
// and then calls fn: the joiner shape (wait for a launch, then stop the
// kernel or signal onward).
func (k *Kernel) SpawnWait(name string, wg *WaitGroup, fn func()) *Proc {
	return k.SpawnCont(name, &waitThen{wg: wg, fn: fn})
}

// waitThen is SpawnWait's machine.
type waitThen struct {
	wg *WaitGroup
	fn func()
}

func (w *waitThen) Step(c *ContProc) bool {
	if !w.wg.WaitCont(c) {
		return false
	}
	w.fn()
	return true
}

// WaitCont waits for the signal, recall style: it reports whether the
// signal has fired, registering c as a waiter and marking it
// parked otherwise. On false the body must yield and re-call on wake (the
// signal latches, so the re-call returns true).
//
//repro:hotpath
func (s *Signal) WaitCont(c *ContProc) bool {
	if s.fired {
		return true
	}
	s.waiters = append(s.waiters, (*Proc)(c))
	c.Pause()
	return false
}

// AcquireCont takes a slot, advance style: it reports whether a slot was
// taken inline. On false the process is queued and
// marked parked; the wakeup from Release means the slot has been
// transferred, so the body must advance past the acquire before yielding —
// it must NOT re-call AcquireCont on wake.
//
//repro:hotpath
func (r *Resource) AcquireCont(c *ContProc) bool {
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.inUse++
		return true
	}
	r.waiters.Push((*Proc)(c))
	if r.waiters.Len() > r.MaxQueue {
		r.MaxQueue = r.waiters.Len()
	}
	c.Pause()
	return false
}
