package pfs

import (
	"math"
	"testing"

	"repro/internal/simkernel"
)

// boundaryDelay maps a byte to a clock advance at one of four scales: none,
// nanoseconds (inside one rounding step of a boundary), tens of
// milliseconds, and seconds (past flow completions and cache drains).
func boundaryDelay(b byte) simkernel.Time {
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return simkernel.Time(b >> 2)
	case 2:
		return simkernel.Time(b>>2) * 10 * simkernel.Time(1e6)
	default:
		return simkernel.Time(b>>2) * simkernel.Time(1e9)
	}
}

// scanBoundary is recompute's next-boundary time with the flow term taken
// by scanning every flow, as the fluid model computed it before it kept the
// least remaining. It reads the rates recompute just planned.
func scanBoundary(o *OST) float64 {
	next := math.Inf(1)
	if r := o.flowRate; r > 0 {
		for _, f := range o.flows {
			if t := f.remaining / r; t < next {
				next = t
			}
		}
	}
	sumInflow, drain := o.planInflow, o.drainRate
	fill := sumInflow - drain
	if o.cacheLevel > 0 || sumInflow > drain {
		if fill > 0 && o.cacheLevel < o.effCache {
			if t := (o.effCache - o.cacheLevel) / fill; t < next {
				next = t
			}
		}
	}
	if o.waiters.Len() > 0 && drain > 0 {
		needed := o.waiters.Front().watermark - o.drainedTotal
		if needed <= completionEps {
			next = 0
		} else if t := needed / drain; t < next {
			next = t
		}
	}
	return next
}

// checkOST holds o to its stored state's contracts: the least remaining
// equals a scan of the flows, and a target outside the live set has no
// flows and an exactly empty cache.
func checkOST(t *testing.T, step int, o *OST) {
	t.Helper()
	if len(o.flows) > 0 {
		lo := math.Inf(1)
		for _, f := range o.flows {
			lo = math.Min(lo, f.remaining)
		}
		if o.minRemaining != lo {
			t.Fatalf("step %d: stored least remaining %v, scan of %d flows %v", step, o.minRemaining, len(o.flows), lo)
		}
	}
	if (*o.live)[o.ID>>6]&(1<<(o.ID&63)) == 0 && (len(o.flows) > 0 || o.cacheLevel != 0) {
		t.Fatalf("step %d: target outside the live set holds %d flows and %v dirty bytes", step, len(o.flows), o.cacheLevel)
	}
}

// wakeCounter counts the wakeups of its process: it parks on its first
// step and on every wakeup after counting it, so a write that woke its
// waiter twice reads 2.
type wakeCounter struct {
	parked bool
	woke   int
}

func (w *wakeCounter) Step(c *simkernel.ContProc) bool {
	if w.parked {
		w.woke++
	}
	w.parked = true
	c.Pause()
	return false
}

// FuzzOSTBoundary checks the OST's stored least remaining against a scan.
// A script of writes, clock advances, interference knob changes, health
// changes (a Dead target stalls its flows) and flush waiters drives one
// target. After each step the stored minimum must equal a scan of the
// flows; then the target is advanced and replanned, and its boundary
// deadline must be the one scanBoundary derives. A flush queued behind an
// existing head skips its recompute when one already ran since the fluid
// state last changed; after every flush a forced recompute must leave the
// pending boundary timer and its deadline as they were. Each write wakes its own
// parked wakeCounter, and at the end every one must have been woken exactly
// once. Opcodes (low 3 bits of a step's first byte, one argument byte
// each):
//
//	0  StartWrite of 1–8k bytes
//	1  RunUntil(now + boundaryDelay(arg)); a zero delay runs to the armed
//	   boundary instead, so the check sees the state a boundary event left
//	2  SetExternalStreams(arg % 4)
//	3  SetSlowFactor from arg
//	4  SetIngestFactor from arg
//	5  SetHealth: Healthy, Degraded, Dead or Rebuilding
//	6  a flush waiter, parked by a process spawned now
//	7  StartWrite of 0 bytes
func FuzzOSTBoundary(f *testing.F) {
	// Writes that overlap and finish at different times, with waiters.
	f.Add([]byte{0, 10, 0, 200, 1, 43, 0, 3, 6, 0, 1, 7, 1, 255, 6, 0, 1, 255})
	// Boundary by boundary through staggered completions.
	f.Add([]byte{0, 10, 0, 200, 0, 60, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	// Knobs changed while flows are in flight, then a dead target that
	// stalls them and revives.
	f.Add([]byte{0, 50, 0, 90, 2, 3, 1, 22, 3, 4, 4, 7, 5, 2, 1, 255, 5, 0, 1, 255, 1, 255})
	// A cache that fills and throttles, with a zero-byte write and a flush.
	f.Add([]byte{0, 255, 0, 255, 0, 255, 1, 9, 7, 0, 6, 0, 1, 91, 2, 1, 1, 255, 1, 255})
	// Flushes queued behind a head at one instant (their recomputes are
	// skipped), then more after the clock moves and a write lands.
	f.Add([]byte{0, 255, 0, 255, 1, 9, 6, 0, 6, 0, 6, 0, 1, 5, 6, 0, 0, 40, 6, 0, 1, 255, 6, 0, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		cfg := flatConfig()
		cfg.ClientCap = 200 // faster than the disk, so the cache fills
		k := simkernel.New()
		fs := MustNew(k, cfg)
		o := fs.OST(0)
		var counters []*wakeCounter
		waiter := func() *simkernel.Proc {
			w := &wakeCounter{}
			counters = append(counters, w)
			return k.SpawnCont(w)
		}
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], data[step+1]
			switch op & 7 {
			case 0:
				o.StartWrite(float64(1+int(arg)*32), waiter())
			case 1:
				if arg&3 == 0 && o.boundary.Active() {
					k.RunUntil(o.boundaryAt)
				} else {
					k.RunUntil(k.Now() + boundaryDelay(arg))
				}
			case 2:
				o.SetExternalStreams(int(arg % 4))
			case 3:
				o.SetSlowFactor(float64(arg%10+1) / 10)
			case 4:
				o.SetIngestFactor(float64(arg%10+1) / 10)
			case 5:
				o.SetHealth(HealthState(arg%4), 0.5)
			case 6:
				k.SpawnCont(run(ostFlush(fs, o)))
				k.RunUntil(k.Now())
				timer, at := o.boundary, o.boundaryAt
				o.recompute()
				if o.boundary != timer || o.boundaryAt != at {
					t.Fatalf("step %d: a recompute after the flush moved the boundary from %v (timer %v) to %v (timer %v)", step, at, timer, o.boundaryAt, o.boundary)
				}
			case 7:
				o.StartWrite(0, waiter())
			}
			checkOST(t, step, o)
			o.advance()
			o.recompute()
			checkOST(t, step, o)
			next := scanBoundary(o)
			if math.IsInf(next, 1) {
				if o.boundary.Active() {
					t.Fatalf("step %d: boundary armed at %v, scan finds the target quiescent", step, o.boundaryAt)
				}
				continue
			}
			want := k.Now() + simkernel.FromSeconds(max(next, 1e-9))
			if !o.boundary.Active() || o.boundaryAt != want {
				t.Fatalf("step %d: boundary at %v (armed %v), scan wants %v", step, o.boundaryAt, o.boundary.Active(), want)
			}
		}
		o.SetHealth(Healthy, 1)
		k.Run()
		checkOST(t, len(data), o)
		if len(counters) != o.Stats.WritesStarted {
			t.Fatalf("%d writes issued, %d started", len(counters), o.Stats.WritesStarted)
		}
		for i, w := range counters {
			if w.woke != 1 {
				t.Fatalf("write %d of %d woke its waiter %d times, want 1", i, len(counters), w.woke)
			}
		}
	})
}

// TestFlushBehindHeadSkipsRecompute pins when a flush skips its recompute:
// queued behind an existing head at the instant of the last recompute,
// whether in a waiter of its own or in the back waiter's cohort. A planted
// boundary deadline survives the skipped recompute; a flush queued after
// the clock moved, cohort or not, or at the head of an empty queue,
// recomputes and replaces it.
func TestFlushBehindHeadSkipsRecompute(t *testing.T) {
	const planted = simkernel.Time(-1)
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 500 // faster than the disk, so the cache holds dirty bytes
	fs := MustNew(k, cfg)
	o := fs.OST(0)
	o.StartWrite(5000, nil)
	tick := func(d simkernel.Time) {
		at := k.Now() + d
		k.At(at, func() {})
		k.RunUntil(at)
	}
	tick(simkernel.FromSeconds(1))
	flush := func() bool {
		o.boundaryAt = planted
		k.SpawnCont(run(ostFlush(fs, o)))
		k.RunUntil(k.Now())
		kept := o.boundaryAt == planted
		o.recompute()
		return kept
	}
	if flush() {
		t.Fatal("the first flush, at the head of an empty queue, skipped its recompute")
	}
	if !flush() {
		t.Fatal("a flush queued behind the head at the same instant recomputed")
	}
	tick(1)
	if flush() {
		t.Fatal("a flush queued behind the head after the clock moved skipped its recompute")
	}
	// The first two flushes wait at one watermark with one snapshot, so
	// they share a waiter; the third's watermark is a tick later.
	if o.waiters.Len() != 2 {
		t.Fatalf("%d flush waiters queued, want 2", o.waiters.Len())
	}
	if n := cohortLen(o.waiters.Front().hop) + cohortLen(o.waiters.Back().hop); n != 3 {
		t.Fatalf("%d flushes parked in the queue, want 3", n)
	}
	// Once the write is done the watermark holds while the cache drains,
	// so a flush after the clock moved joins the back waiter's cohort, and
	// it recomputes too.
	for o.ActiveFlows() > 0 {
		tick(simkernel.FromSeconds(1))
	}
	flush()
	tick(1)
	if flush() {
		t.Fatal("a flush joining the back waiter's cohort after the clock moved skipped its recompute")
	}
	if n := cohortLen(o.waiters.Back().hop); n != 2 {
		t.Fatalf("the last two flushes parked in cohorts of %d, want one of 2", n)
	}
	k.Run()
}

// cohortLen counts the members of the cohort h leads.
func cohortLen(h *flushHop) int {
	n := 0
	for ; h != nil; h = h.next {
		n++
	}
	return n
}
