package pfs

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// BenchmarkOSTFluidUpdates measures the fluid model's cost under heavy
// concurrent membership churn: many flows joining and completing on one
// target.
func BenchmarkOSTFluidUpdates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := flatConfig()
		cfg.ClientCap = 400
		k := simkernel.New()
		fs := MustNew(k, cfg)
		for j := 0; j < 64; j++ {
			k.SpawnContAt(simkernel.Time(j), run(ostWrite(fs.OST(0), float64(100+j), nil)))
		}
		k.Run()
		k.Shutdown()
	}
}

// BenchmarkStripedWrite measures chunked writes across a striped file.
func BenchmarkStripedWrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := simkernel.New()
		cfg := flatConfig()
		cfg.NumOSTs = 16
		cfg.MaxChunksPerOp = 16
		fs := MustNew(k, cfg)
		var f *File
		var err error
		k.SpawnCont(run(
			create(fs, "bench", Layout{StripeCount: 8, StripeSize: 1 << 16}, &f, &err),
			stopIf(func() bool {
				if err != nil {
					b.Error(err)
					return true
				}
				return false
			}),
			writeAt(&f, 0, 1<<22, nil),
			flush(&f),
			closeFile(&f),
		))
		k.Run()
		k.Shutdown()
	}
}

// BenchmarkManyOSTConstruction measures file-system setup cost at Jaguar
// scale (672 targets), which every experiment sample pays.
func BenchmarkManyOSTConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := simkernel.New()
		fs := MustNew(k, Config{NumOSTs: 672, Seed: int64(i)})
		if len(fs.OSTs) != 672 {
			b.Fatal("bad fs")
		}
		k.Shutdown()
	}
}

var sinkName string

// BenchmarkFileCreate measures metadata create throughput.
func BenchmarkFileCreate(b *testing.B) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	b.ResetTimer()
	count := 0
	var op FileOp
	var name string
	k.SpawnCont(stepFunc(func(c *simkernel.ContProc) bool {
		for count < b.N {
			if name == "" {
				name = fmt.Sprintf("f%d", count)
				op.BeginCreate(fs, name, Layout{OSTs: []int{0}})
				if !c.Call(&op) {
					return false
				}
			}
			if err := op.Err(); err != nil {
				b.Error(err)
				return true
			}
			sinkName = name
			name = ""
			count++
		}
		return true
	}))
	k.Run()
	k.Shutdown()
}

// deepFlushRig keeps one OST's flush-waiter queue thousands deep, the shape
// MPI-IO's flush-before-close builds at full scale: every flusher parks
// behind a slowly draining cache, and each one that wakes writes one more
// byte and parks again at the tail. Flushers start a microsecond apart, far
// inside the 10 ms the disk takes to drain one byte, so every watermark is
// distinct and the waiters wake one at a time while the rest stay queued.
// The cache never fills, so the rig exercises the flush path alone, not the
// cache-full throttle.
type deepFlushRig struct {
	k      *simkernel.Kernel
	o      *OST
	done   int // flush completions so far
	stopAt int // stop the run at this many completions
}

// Fire stops the run: the flushers never finish, so the flusher that
// counts the stopAt-th completion schedules the rig as an event.
func (r *deepFlushRig) Fire() { r.k.Stop() }

// deepFlusher loops forever: write one byte, flush, count the completion.
type deepFlusher struct {
	pc  int
	rig *deepFlushRig
	w   OSTWriteOp
	f   ostFlushWait
}

func (m *deepFlusher) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.w.Begin(m.rig.o, 1)
			m.pc = 1
		case 1:
			if !m.w.Step(c) {
				return false
			}
			m.pc = 2
		default:
			if !m.f.Step(c) {
				return false
			}
			m.pc = 0
			if m.rig.done++; m.rig.done == m.rig.stopAt {
				c.Kernel().AtEvent(c.Now(), m.rig)
			}
		}
	}
}

// newDeepFlushRig parks the given number of flushers on one OST and runs
// each through a full cycle, so the waiter ring, the flow pool and the
// kernel's event pool are at their steady-state sizes.
func newDeepFlushRig(flushers int) *deepFlushRig {
	cfg := flatConfig()
	cfg.CacheBytes = 1e12
	cfg.IngestBW = 1e9
	cfg.ClientCap = 1e9
	k := simkernel.New()
	fs := MustNew(k, cfg)
	r := &deepFlushRig{k: k, o: fs.OST(0)}
	for i := 0; i < flushers; i++ {
		k.SpawnContAt(simkernel.FromSeconds(float64(i)*1e-6), &deepFlusher{rig: r, f: ostFlushWait{fs: fs, o: r.o}})
	}
	r.completions(2 * flushers)
	return r
}

// completions runs the kernel until n more flushes have completed.
func (r *deepFlushRig) completions(n int) {
	r.stopAt = r.done + n
	r.k.Run()
}

// BenchmarkOSTDeepFlushWaiters measures one flush completion (the head
// waiter's wakeup, its next one-byte write and its re-park at the tail) on
// an OST with 4096 parked flushers.
func BenchmarkOSTDeepFlushWaiters(b *testing.B) {
	b.ReportAllocs()
	r := newDeepFlushRig(4096)
	defer r.k.Shutdown()
	b.ResetTimer()
	r.completions(b.N)
	b.StopTimer()
	b.ReportMetric(float64(r.o.waiters.Len()), "waiters")
}

// TestOSTDeepFlushWaitersZeroAlloc gates the deep-queue flush path: once the
// rig is warm, cycling flushers through a 4096-deep waiter queue allocates
// nothing, so every flush walk's hop comes back from the free list.
func TestOSTDeepFlushWaitersZeroAlloc(t *testing.T) {
	r := newDeepFlushRig(4096)
	defer r.k.Shutdown()
	if n := r.o.waiters.Len(); n < 4000 {
		t.Fatalf("only %d flush waiters parked; the rig is not deep", n)
	}
	got := testing.AllocsPerRun(20, func() { r.completions(64) })
	if got != 0 {
		t.Fatalf("deep flush-waiter cycle allocates %v allocs/op in steady state; want 0", got)
	}
}

// flushLoop creates a one-target file, then loops forever through one
// FileOp: write one byte, flush, count the flush. At stopAt flushes it
// schedules itself as the event that stops the run.
type flushLoop struct {
	pc           int
	fs           *FileSystem
	f            *File
	op           FileOp
	done, stopAt int
}

// Fire stops the run.
func (m *flushLoop) Fire() { m.fs.K.Stop() }

func (m *flushLoop) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.op.BeginCreate(m.fs, "loop", Layout{OSTs: []int{0}})
			m.pc = 1
			if !c.Call(&m.op) {
				return false
			}
		case 1:
			if err := m.op.Err(); err != nil {
				panic(err)
			}
			m.f = m.op.File()
			m.pc = 2
		case 2:
			m.op.BeginWrite(m.f, 0, 1)
			m.pc = 3
			if !c.Call(&m.op) {
				return false
			}
		case 3:
			m.op.BeginFlush(m.f)
			m.pc = 4
			if !c.Call(&m.op) {
				return false
			}
		default:
			m.pc = 2
			if m.done++; m.done == m.stopAt {
				c.Kernel().AtEvent(c.Now(), m)
			}
		}
	}
}

// TestFileOpFlushLoopZeroAlloc gates a flush's snapshot: once warm, a
// process looping a one-byte write and a flush through one FileOp
// allocates nothing, because each flush copies the touched set into its
// hop's own buffer and the hop comes back from the free list.
func TestFileOpFlushLoopZeroAlloc(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	m := &flushLoop{fs: MustNew(k, flatConfig())}
	flushes := func(n int) {
		m.stopAt = m.done + n
		k.Run()
	}
	k.SpawnCont(m)
	flushes(1000)
	// Each flush waits for its byte to drain, so its hop parks.
	if d := m.fs.OST(0).Stats.BytesDrained; d < 999 {
		t.Fatalf("%v bytes drained after 1000 flushes; the flushes did not wait", d)
	}
	got := testing.AllocsPerRun(10, func() { flushes(1000) })
	if got != 0 {
		t.Fatalf("write+flush loop allocates %v allocs per 1000 flushes in steady state; want 0", got)
	}
}
