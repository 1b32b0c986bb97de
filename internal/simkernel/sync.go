package simkernel

// This file provides the synchronization primitives used by higher layers:
// counted resources for queueing servers (e.g. the metadata server),
// broadcast signals, and wait groups. A process waits on one through the
// primitive's *Cont method. Each holds its parked processes and releases them
// with Proc.Wake, so none is wired to a kernel: a zero WaitGroup or Signal is
// ready to use, and a zero Resource is armed by Reset.

// Resource is a counted FIFO resource: up to Capacity holders at a time,
// additional acquirers queue in arrival order. It models service points such
// as the metadata server's request slots. The zero value has no slots until
// Reset sizes it.
type Resource struct {
	capacity int
	inUse    int
	waiters  Ring[*Proc]

	// MaxQueue tracks the high-water mark of the wait queue, useful for
	// diagnosing contention in experiments.
	MaxQueue int
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("simkernel: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity}
}

// Release frees a slot, waking the longest-waiting acquirer if any. Callable
// from both process and kernel context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simkernel: Release without Acquire")
	}
	if r.waiters.Len() > 0 {
		// Slot transfers directly: inUse stays constant.
		r.waiters.Pop().Wake()
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
// component calls Broadcast, which wakes all of them. The zero value is an
// unfired signal.
type Signal struct {
	waiters []*Proc
	fired   bool
}

// Broadcast wakes all waiters and latches the signal: subsequent WaitCont
// calls return true at once. Callable from both process and kernel context.
func (s *Signal) Broadcast() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w.Wake()
	}
	s.waiters = s.waiters[:0]
}

// Arm re-arms s as an unfired signal, keeping the waiter storage of its
// previous use, so a signal carved from a replica slab with Slab.Reuse parks
// its waiters without growing a new list.
func (s *Signal) Arm() {
	s.fired, s.waiters = false, s.waiters[:0]
}

// Fired reports whether Broadcast has been called.
func (s *Signal) Fired() bool { return s.fired }

// WaitGroup counts outstanding work items; WaitCont waits until the count
// reaches zero. Unlike sync.WaitGroup it is single-threaded under the
// kernel's handoff discipline and allows multiple waiters. The zero value
// has a zero count.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add increments the counter by n (n may be negative; Done is Add(-1)).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("simkernel: negative WaitGroup counter")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Arm re-arms wg as a zero-count wait group, keeping the waiter storage of
// its previous use, so a wait group carved from a replica slab with
// Slab.Reuse parks its waiters without growing a new list.
func (wg *WaitGroup) Arm() {
	wg.count, wg.waiters = 0, wg.waiters[:0]
}

// TakeWaitGroup carves a wait group from s, re-armed with its counter at n
// over the waiter storage its previous holder left.
//
//repro:hotpath
func TakeWaitGroup(s *Slab[WaitGroup], n int) *WaitGroup {
	wg := s.Reuse()
	wg.Arm()
	wg.Add(n)
	return wg
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
func (wg *WaitGroup) WaitCont(c *ContProc) bool {
	if wg.count > 0 {
		wg.waiters = append(wg.waiters, (*Proc)(c))
		c.Pause()
		return false
	}
	return true
}

// SpawnWait spawns a worker that waits for wg to reach zero and then calls
// fn: the joiner shape (wait for a launch, then record its end or signal
// onward; a run ends by itself, so no joiner stops the kernel).
func (k *Kernel) SpawnWait(wg *WaitGroup, fn func()) *Proc {
	return k.SpawnCont(&waitThen{wg: wg, fn: fn})
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
