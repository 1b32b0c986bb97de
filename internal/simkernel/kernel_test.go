package simkernel

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 11) }) // same time: scheduling order
	end := k.Run()
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	k := New()
	var fired Time = -1
	k.At(100, func() {
		k.At(50, func() { fired = k.Now() }) // in the past
	})
	k.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	k := New()
	fired := false
	tm := k.At(10, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("timer should be inactive after cancel")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestAfterAndAfterSeconds(t *testing.T) {
	k := New()
	var at1, at2 Time
	k.After(2*time.Second, func() { at1 = k.Now() })
	k.AfterSeconds(1.5, func() { at2 = k.Now() })
	k.Run()
	if at1 != Time(2*time.Second) {
		t.Errorf("After fired at %v, want 2s", at1)
	}
	if at2 != FromSeconds(1.5) {
		t.Errorf("AfterSeconds fired at %v, want 1.5s", at2)
	}
}

func TestFromSecondsClampsNegative(t *testing.T) {
	if FromSeconds(-1e-12) != 0 {
		t.Fatal("negative seconds should clamp to zero")
	}
	if FromSeconds(0) != 0 {
		t.Fatal("zero seconds should be zero")
	}
	if got := FromSeconds(1.0); got != 1e9 {
		t.Fatalf("FromSeconds(1.0) = %d, want 1e9", got)
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var trace []string
	k.SpawnCont(run(
		do(func() { trace = append(trace, "a0") }),
		sleep(10*time.Nanosecond),
		do(func() { trace = append(trace, "a1") }),
		sleep(10*time.Nanosecond),
		do(func() { trace = append(trace, "a2") }),
	))
	k.SpawnCont(run(
		do(func() { trace = append(trace, "b0") }),
		sleep(15*time.Nanosecond),
		do(func() { trace = append(trace, "b1") }),
	))
	k.Run()
	k.Shutdown()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestSpawnAt(t *testing.T) {
	k := New()
	var started Time = -1
	k.SpawnContAt(42, run(do(func() { started = k.Now() })))
	k.Run()
	k.Shutdown()
	if started != 42 {
		t.Fatalf("SpawnAt process started at %v, want 42", started)
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	k := New()
	var after Time
	k.SpawnCont(run(
		sleep(10*time.Nanosecond),
		sleepUntil(5), // already in the past
		do(func() { after = k.Now() }),
	))
	k.Run()
	k.Shutdown()
	if after != 10 {
		t.Fatalf("SleepUntil(past) advanced clock to %v, want 10", after)
	}
}

func TestSuspendAndWake(t *testing.T) {
	k := New()
	var woken Time = -1
	var parked *Proc
	k.SpawnCont(run(
		suspend(&parked),
		do(func() { woken = k.Now() }),
	))
	k.At(7, func() { parked.Wake() })
	k.Run()
	k.Shutdown()
	if woken != 7 {
		t.Fatalf("suspended process woke at %v, want 7", woken)
	}
}

func TestResourceFIFOAndTransfer(t *testing.T) {
	k := New()
	r := NewResource(2)
	var order []string
	worker := func(name string, hold time.Duration) {
		k.SpawnCont(run(
			acquire(r),
			do(func() { order = append(order, name+"+") }),
			sleep(hold),
			do(func() {
				order = append(order, name+"-")
				r.Release()
			}),
		))
	}
	worker("a", 10)
	worker("b", 10)
	worker("c", 10) // must wait for a or b
	k.Run()
	k.Shutdown()
	// At t=10 both a's release-handoff to c and b's pre-scheduled sleep
	// wakeup fire; b's wakeup was scheduled earlier (lower sequence), so
	// b- precedes c+.
	want := []string{"a+", "b+", "a-", "b-", "c+", "c-"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if r.InUse() != 0 {
		t.Fatalf("resource left with %d in use", r.InUse())
	}
	if r.MaxQueue != 1 {
		t.Fatalf("MaxQueue = %d, want 1", r.MaxQueue)
	}
}

func TestResourceReleasePanicsWhenFree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on spurious Release")
		}
	}()
	r := NewResource(1)
	r.Release()
}

func TestSignalBroadcastAndLatch(t *testing.T) {
	k := New()
	var s Signal
	var woke []string
	k.SpawnCont(run(contFunc(s.WaitCont), do(func() { woke = append(woke, "w1") })))
	k.SpawnCont(run(contFunc(s.WaitCont), do(func() { woke = append(woke, "w2") })))
	k.At(5, func() { s.Broadcast() })
	// A late waiter should pass straight through.
	k.SpawnContAt(10, run(contFunc(s.WaitCont), do(func() { woke = append(woke, "w3") })))
	k.Run()
	k.Shutdown()
	want := []string{"w1", "w2", "w3"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
	if !s.Fired() {
		t.Fatal("signal should report fired")
	}
}

func TestWaitGroup(t *testing.T) {
	k := New()
	var wg WaitGroup
	wg.Add(3)
	var doneAt Time = -1
	k.SpawnCont(run(
		contFunc(wg.WaitCont),
		do(func() { doneAt = k.Now() }),
	))
	for i := 1; i <= 3; i++ {
		i := i
		k.At(Time(i*10), func() { wg.Done() })
	}
	k.Run()
	k.Shutdown()
	if doneAt != 30 {
		t.Fatalf("waiter released at %v, want 30", doneAt)
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d, want 0", wg.Count())
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative WaitGroup count")
		}
	}()
	var wg WaitGroup
	wg.Done()
}

// TestZeroPrimitivesWakeFIFOAtRelease pins the wake contract of the wait
// primitives: a zero WaitGroup or Signal, and a zero Resource sized by
// Reset, is used with no kernel wiring, and one release at t=7 wakes its
// parked processes in the order they parked, all at t=7.
func TestZeroPrimitivesWakeFIFOAtRelease(t *testing.T) {
	cases := []struct {
		name string
		// arm readies the primitive on k and returns the waiters' park
		// step and the release.
		arm func(k *Kernel) (park Cont, release func())
	}{
		{"WaitGroup", func(*Kernel) (Cont, func()) {
			var wg WaitGroup
			wg.Add(1)
			return contFunc(wg.WaitCont), wg.Done
		}},
		{"Signal", func(*Kernel) (Cont, func()) {
			var s Signal
			return contFunc(s.WaitCont), s.Broadcast
		}},
		{"Resource", func(k *Kernel) (Cont, func()) {
			var r Resource
			r.Reset(1)
			k.SpawnCont(run(acquire(&r))) // holds the one slot
			return contFunc(r.AcquireCont), func() {
				for r.QueueLen() > 0 {
					r.Release()
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			park, release := tc.arm(k)
			var woke []int
			var at []Time
			for i := 0; i < 4; i++ {
				parked := false
				k.SpawnCont(contFunc(func(c *ContProc) bool {
					if !parked {
						parked = true
						if park.Step(c) {
							t.Fatalf("waiter %d passed before the release", i)
						}
						return false
					}
					woke = append(woke, i)
					at = append(at, c.Now())
					return true
				}))
			}
			k.At(7, release)
			k.Run()
			k.Shutdown()
			if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(woke, want) {
				t.Fatalf("wake order %v, want %v", woke, want)
			}
			if want := []Time{7, 7, 7, 7}; !reflect.DeepEqual(at, want) {
				t.Fatalf("wake times %v, want %v", at, want)
			}
		})
	}
}

func TestRunUntilResumable(t *testing.T) {
	k := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(15)
	if !reflect.DeepEqual(fired, []Time{10}) {
		t.Fatalf("after RunUntil(15): fired = %v, want [10]", fired)
	}
	k.RunUntil(100)
	if !reflect.DeepEqual(fired, []Time{10, 20, 30}) {
		t.Fatalf("after resume: fired = %v, want [10 20 30]", fired)
	}
}

func TestStop(t *testing.T) {
	k := New()
	var fired []Time
	k.At(10, func() { fired = append(fired, 10); k.Stop() })
	k.At(20, func() { fired = append(fired, 20) })
	k.Run()
	if !reflect.DeepEqual(fired, []Time{10}) {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

// TestFiredCountsEvents pins Kernel.Fired: every fired event counts, across
// RunUntil calls and a Stop, a cancelled one does not, and Reset zeroes it.
func TestFiredCountsEvents(t *testing.T) {
	k := New()
	k.At(10, func() {})
	k.At(10, func() { k.At(10, func() {}) }) // a now-lane event counts too
	k.At(20, func() { k.Stop() })
	k.At(30, func() {}).Cancel()
	k.At(40, func() {})
	k.RunUntil(15)
	if got := k.Fired(); got != 3 {
		t.Fatalf("after RunUntil(15): Fired = %d, want 3", got)
	}
	k.Run()
	if got := k.Fired(); got != 4 {
		t.Fatalf("after the Stop at 20: Fired = %d, want 4", got)
	}
	k.Run()
	if got := k.Fired(); got != 5 {
		t.Fatalf("after the drain: Fired = %d, want 5 (the cancelled event excluded)", got)
	}
	k.Reset()
	if got := k.Fired(); got != 0 {
		t.Fatalf("after Reset: Fired = %d, want 0", got)
	}
}

func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	k := New()
	finished := false
	var parked *Proc
	k.SpawnCont(run(
		suspend(&parked), // nothing ever wakes it
		do(func() { finished = true }),
	))
	k.Run()
	k.Shutdown()
	if finished {
		t.Fatal("stuck process should not have completed its body")
	}
}

func TestShutdownUnwindsNeverStartedProcess(t *testing.T) {
	k := New()
	started := false
	k.SpawnContAt(1000, run(do(func() { started = true })))
	k.RunUntil(10)
	k.Shutdown()
	if started {
		t.Fatal("process scheduled after deadline should not have started")
	}
}

// runRandomWorkload executes a randomized pile of interacting processes on a
// fresh kernel and returns a trace; used to property-test determinism (see
// runRandomWorkloadOn in reset_test.go for the reusable-kernel form).
func runRandomWorkload(seed int64) []int64 {
	k := New()
	trace := runRandomWorkloadOn(k, seed)
	k.Shutdown()
	return trace
}

func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := runRandomWorkload(seed)
		b := runRandomWorkload(seed)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEventTimeMonotoneProperty(t *testing.T) {
	// Whatever random times we schedule, the kernel fires them in
	// non-decreasing time order.
	f := func(times []uint16) bool {
		k := New()
		var fired []Time
		for _, u := range times {
			at := Time(u)
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventLimitGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected event-limit panic")
		}
	}()
	k := New()
	k.EventLimit = 10
	var loop func()
	loop = func() { k.After(1, func() { loop() }) }
	loop()
	k.Run()
}
