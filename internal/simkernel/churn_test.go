package simkernel

import "testing"

// timerChurn is one steady-state round of heavy timer traffic: schedule a
// batch, cancel three quarters of it (enough to trip the lazy-cancel
// compaction threshold every round), and drain the survivors. All state it
// touches — pool slots, free list, queue backing array — is owned by the
// kernel and recycled, so after a warm-up round it must not allocate.
func timerChurn(k *Kernel, timers []Timer, fn func()) {
	base := k.Now()
	for j := range timers {
		timers[j] = k.At(base+Time(j%16), fn)
	}
	for j := range timers {
		if j%4 != 3 {
			timers[j].Cancel()
		}
	}
	k.RunUntil(base + 16)
}

// BenchmarkKernelTimerChurn measures the schedule/cancel/fire cycle the
// fluid-model boundary timers generate (every OST replan cancels and
// reschedules its boundary event).
func BenchmarkKernelTimerChurn(b *testing.B) {
	b.ReportAllocs()
	k := New()
	fn := func() {}
	timers := make([]Timer, 64)
	timerChurn(k, timers, fn) // warm the pool and queue
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timerChurn(k, timers, fn)
	}
}

// TestKernelTimerChurnZeroAlloc is the allocation regression gate for the
// kernel hot loop: once pool and queue are warm, timer churn — including
// the compaction it triggers — must be allocation-free.
func TestKernelTimerChurnZeroAlloc(t *testing.T) {
	k := New()
	fn := func() {}
	timers := make([]Timer, 64)
	timerChurn(k, timers, fn)
	got := testing.AllocsPerRun(100, func() {
		timerChurn(k, timers, fn)
	})
	if got != 0 {
		t.Fatalf("timer churn allocates %v allocs/op in steady state; want 0", got)
	}
}

// TestCompactOrderPreserved pins the compaction re-heapify: bulk-removing
// cancelled entries must leave the survivors firing in exact (time, seq)
// order. Heap sizes sweep across 4-ary parent boundaries, where an
// off-by-one in the heapify start index leaves deep leaves unordered.
func TestCompactOrderPreserved(t *testing.T) {
	for n := 2; n <= 200; n++ {
		k := New()
		var fired []Time
		timers := make([]Timer, n)
		for j := 0; j < n; j++ {
			// A scattered, collision-rich schedule (j*37 mod 101 repeats
			// times for n > 101, exercising the seq tiebreak).
			at := Time(j * 37 % 101)
			timers[j] = k.At(at, func() { fired = append(fired, k.Now()) })
		}
		for j := 0; j < n; j++ {
			if j%4 != 1 {
				timers[j].Cancel() // 75% cancelled: forces compaction
			}
		}
		k.Run()
		want := 0
		for j := 0; j < n; j++ {
			if j%4 == 1 {
				want++
			}
		}
		if len(fired) != want {
			t.Fatalf("n=%d: fired %d events, want %d", n, len(fired), want)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("n=%d: events fired out of order: t=%v before t=%v", n, fired[i-1], fired[i])
			}
		}
	}
}

// TestTimerGenerationSafety verifies a stale handle cannot cancel the
// event that reuses its pool slot.
func TestTimerGenerationSafety(t *testing.T) {
	k := New()
	fired := 0
	tm := k.At(5, func() { t.Fatal("cancelled event fired") })
	tm.Cancel()
	k.Run() // slot is released
	tm2 := k.At(10, func() { fired++ })
	tm.Cancel() // stale: same slot, older generation — must be a no-op
	if !tm2.Active() {
		t.Fatal("stale Cancel deactivated the slot's new occupant")
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// Zero-delay wakeup storm geometry: stormParked timers stay pending in the
// queue (fig1's peak near-tier depth at full scale was about 16.9k before
// overfull buckets split into rungs) while each op fires stormWidth chains
// of stormDepth events, every link scheduled by AtEvent at Now from inside
// the firing event, as process wakeups and resource handoffs are.
const (
	stormParked = 16384
	stormWidth  = 8
	stormDepth  = 8
)

// stormLink is one zero-delay chain: each firing re-arms itself at Now until
// its depth is spent.
type stormLink struct {
	k    *Kernel
	left int
}

func (l *stormLink) Fire() {
	if l.left > 0 {
		l.left--
		l.k.AtEvent(l.k.Now(), l)
	}
}

// newStormKernel returns a kernel that holds stormParked pending timers, all
// later than the clock (which stays at zero), and the chain links a storm op
// re-arms.
func newStormKernel() (*Kernel, []stormLink) {
	k := New()
	fn := func() {}
	// Parked times span one top-rung bucket, so the first refill splits it
	// into finer rungs and pours only the earliest few into the near heap.
	for j := 0; j < stormParked; j++ {
		k.At(Time(1+j*61), fn)
	}
	k.At(0, fn)
	k.RunUntil(0)
	links := make([]stormLink, stormWidth)
	for i := range links {
		links[i].k = k
	}
	return k, links
}

// zeroDelayStorm is one op: stormWidth*(stormDepth+1) events at the current
// time, each pushed onto and popped off the deep near heap.
func zeroDelayStorm(k *Kernel, links []stormLink) {
	for i := range links {
		links[i].left = stormDepth
		k.AtEvent(k.Now(), &links[i])
	}
	k.RunUntil(k.Now())
}

// BenchmarkZeroDelayStorm measures zero-delay scheduling with many timers
// parked: the same-time FIFO lane keeps every link off the heap.
func BenchmarkZeroDelayStorm(b *testing.B) {
	b.ReportAllocs()
	k, links := newStormKernel()
	zeroDelayStorm(k, links)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroDelayStorm(k, links)
	}
}

// TestZeroDelayStormZeroAlloc is the allocation gate for the storm: once the
// pool and lane are warm, same-time chains scheduled from firing events
// must be allocation-free, and the parked timers must all stay pending.
func TestZeroDelayStormZeroAlloc(t *testing.T) {
	k, links := newStormKernel()
	zeroDelayStorm(k, links)
	got := testing.AllocsPerRun(100, func() {
		zeroDelayStorm(k, links)
	})
	if got != 0 {
		t.Fatalf("zero-delay storm allocates %v allocs/op in steady state; want 0", got)
	}
	if k.Now() != 0 || k.Pending() != stormParked {
		t.Fatalf("after the storm: now=%v pending=%d, want 0, %d", k.Now(), k.Pending(), stormParked)
	}
	for i, l := range links {
		if l.left != 0 {
			t.Fatalf("chain %d stopped with %d links unfired", i, l.left)
		}
	}
}
