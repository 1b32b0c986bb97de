package simkernel

import (
	"testing"

	"repro/internal/rngx"
)

// refQueue is the reference event queue for the calendar property test: the
// plain 4-ary heap the kernel used before the calendar fronted it, driven
// through the exact heapPush/heapPopMin code the near tier still runs.
type refQueue struct {
	heap      []heapItem
	cancelled map[uint64]bool // keyed by seq (unique per event)
}

func (r *refQueue) schedule(at Time, seq uint64) {
	r.heap = heapPush(r.heap, heapItem{at: at, seq: seq})
}

func (r *refQueue) cancel(seq uint64) {
	if r.cancelled == nil {
		r.cancelled = map[uint64]bool{}
	}
	r.cancelled[seq] = true
}

// drain pops every live event with at <= deadline, in heap order.
func (r *refQueue) drain(deadline Time) []heapItem {
	var out []heapItem
	for len(r.heap) > 0 && r.heap[0].at <= deadline {
		var top heapItem
		r.heap, top = heapPopMin(r.heap)
		if r.cancelled[top.seq] {
			continue
		}
		out = append(out, top)
	}
	return out
}

// TestCalendarMatchesHeapPropertyBased cross-checks the calendar queue
// against the plain 4-ary heap on randomized schedule/cancel/drain
// sequences: the pop order must be identical, including seq tie-breaks
// among same-time events. Times are drawn from four bands — inside the near
// window, inside the top rung's span, beyond its end, and the time of the
// event scheduled just before, which joins that event's batch — with a
// coarse quantum so same-time collisions are common, and cancellation is
// heavy enough to trip both the lazy compaction and the pour-time release.
func TestCalendarMatchesHeapPropertyBased(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rngx.New(rngx.DeriveSeed(1234, "calendar-prop", string(rune('a'+trial))))
		k := New()
		ref := &refQueue{}

		var fired []uint64 // seq of each fired event, in fire order
		type ev struct {
			timer Timer
			seq   uint64
			done  bool
		}
		var evs []*ev

		for round := 0; round < 4; round++ {
			n := 50 + rng.Intn(150)
			last := k.Now()
			for i := 0; i < n; i++ {
				var span Time
				switch rng.Intn(4) {
				case 0: // near: inside the current bucket / heap window
					span = Time(rng.Intn(1 << 18))
				case 1: // calendar: within the 64-bucket span
					span = Time(rng.Intn(nBuckets * int(defaultCalWidth)))
				case 2: // far: beyond the horizon, lands in overflow
					span = Time(rng.Int63n(1 << 34))
				default: // same time as the previous event: joins its batch
					span = last - k.Now()
				}
				// Coarse quantum: force same-time collisions so the seq
				// tie-break is exercised.
				at := k.Now() + span/1024*1024
				last = at
				e := &ev{}
				e.timer = k.At(at, func() { fired = append(fired, e.seq); e.done = true })
				e.seq = k.seq
				ref.schedule(at, e.seq)
				evs = append(evs, e)
			}
			// Cancel a heavy slice of everything still pending.
			for _, e := range evs {
				if !e.done && e.timer.Active() && rng.Intn(3) != 0 {
					e.timer.Cancel()
					ref.cancel(e.seq)
				}
			}
			// Drain up to a random intermediate deadline (final round: all).
			deadline := k.Now() + Time(rng.Int63n(1<<35))
			if round == 3 {
				deadline = Time(1<<62 - 1)
			}
			k.RunUntil(deadline)
			want := ref.drain(deadline)
			if len(fired) != len(want) {
				t.Fatalf("trial %d round %d: fired %d events, reference heap fired %d",
					trial, round, len(fired), len(want))
			}
			for i, seq := range fired {
				if seq != want[i].seq {
					t.Fatalf("trial %d round %d: fire order diverges at %d: calendar seq %d, heap seq %d",
						trial, round, i, seq, want[i].seq)
				}
			}
			fired = fired[:0]
		}
		if k.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after full drain", trial, k.Pending())
		}
	}
}

// TestCalendarInEventScheduling pins the pour-path invariant directly: an
// event that schedules below the near/far boundary while a poured bucket is
// draining must still fire in global (time, seq) order.
func TestCalendarInEventScheduling(t *testing.T) {
	k := New()
	var order []int
	log := func(id int) func() { return func() { order = append(order, id) } }
	// Far event in a calendar bucket...
	k.At(defaultCalWidth*3+5, log(2))
	// ...whose predecessor, when fired, schedules both a nearer event
	// (below the boundary, straight into the heap) and a same-time tie.
	k.At(defaultCalWidth*3, func() {
		order = append(order, 1)
		k.At(defaultCalWidth*3+2, log(10)) // between the two pending events
		k.At(defaultCalWidth*3+5, log(11)) // ties with event 2; later seq fires after
	})
	// Overflow event far beyond the horizon.
	k.At(defaultCalWidth*nBuckets*4, log(3))
	k.Run()
	want := []int{1, 10, 2, 11, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// calendarChurn is one steady-state round of far-future timer churn: a
// batch spread across the calendar and overflow tiers, three quarters
// cancelled before the clock ever reaches them, then a partial drain. The
// cancelled mass must be released at pour/respan time without being
// heap-ordered, and — like the near-tier churn — the whole cycle must not
// allocate once the tiers are warm.
func calendarChurn(k *Kernel, timers []Timer, fn func()) {
	base := k.Now()
	for j := range timers {
		// Spread across ~8 buckets plus a far overflow band.
		span := Time(j%8)*defaultCalWidth + Time(j%16)
		if j%5 == 0 {
			span = Time(nBuckets+int(j%7))*defaultCalWidth + Time(j%16)
		}
		timers[j] = k.At(base+span, fn)
	}
	for j := range timers {
		if j%4 != 3 {
			timers[j].Cancel()
		}
	}
	k.Run()
}

// BenchmarkCalendarChurn measures the schedule/cancel/drain cycle across
// the calendar's far tiers (compare BenchmarkKernelTimerChurn, which stays
// inside the near window).
func BenchmarkCalendarChurn(b *testing.B) {
	b.ReportAllocs()
	k := New()
	fn := func() {}
	timers := make([]Timer, 64)
	calendarChurn(k, timers, fn) // warm pool, buckets and overflow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calendarChurn(k, timers, fn)
	}
}

// TestCalendarChurnZeroAlloc is the allocation gate for the far tiers: once
// buckets and overflow are warm, far-future churn — pours, respans and the
// cross-tier compaction included — must be allocation-free.
func TestCalendarChurnZeroAlloc(t *testing.T) {
	k := New()
	fn := func() {}
	timers := make([]Timer, 64)
	calendarChurn(k, timers, fn)
	got := testing.AllocsPerRun(100, func() {
		calendarChurn(k, timers, fn)
	})
	if got != 0 {
		t.Fatalf("calendar churn allocates %v allocs/op in steady state; want 0", got)
	}
}
