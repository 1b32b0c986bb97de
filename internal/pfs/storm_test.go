package pfs

import (
	"testing"

	"repro/internal/simkernel"
)

// stormRig drives rounds of concurrent writes against one OST with a fixed
// set of long-lived continuation writers, the engine production runs on.
// Each round wakes every writer through its cached waker; a writer performs
// one write (join the fluid model, trigger replans, complete) and parks
// again. After the first round the flow pool and the kernel's event pool
// are warm, so a round exercises the entire write/replan/complete cycle
// without allocating.
type stormRig struct {
	k      *simkernel.Kernel
	wakers []func()
}

// stormWriter parks until woken, writes its bytes, and parks again.
type stormWriter struct {
	pc    int
	ost   *OST
	bytes float64
	w     OSTWriteOp
}

func (m *stormWriter) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.pc = 1
			c.Pause()
			return false
		case 1:
			m.w.Begin(m.ost, m.bytes)
			m.pc = 2
		default:
			if !m.w.Step(c) {
				return false
			}
			m.pc = 0
		}
	}
}

func newStormRig(writers int) *stormRig {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 400
	fs := MustNew(k, cfg)
	r := &stormRig{k: k, wakers: make([]func(), writers)}
	for w := range r.wakers {
		p := k.SpawnCont(&stormWriter{ost: fs.OST(0), bytes: float64(100 + w)})
		r.wakers[w] = p.Waker()
	}
	k.Run() // writers park
	return r
}

func (r *stormRig) round() {
	for _, wake := range r.wakers {
		wake()
	}
	r.k.Run()
}

// BenchmarkOSTWriteStorm measures one full storm round: 32 flows joining,
// replanning against each other, and completing on a single target.
func BenchmarkOSTWriteStorm(b *testing.B) {
	b.ReportAllocs()
	r := newStormRig(32)
	defer r.k.Shutdown()
	r.round() // warm pools and scratch buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
}

// TestOSTWriteStormZeroAlloc is the allocation regression gate for the
// write path: steady-state flow churn — StartWrite, every replan it
// triggers, completion wakeups — must be allocation-free.
func TestOSTWriteStormZeroAlloc(t *testing.T) {
	r := newStormRig(32)
	defer r.k.Shutdown()
	r.round()
	got := testing.AllocsPerRun(50, r.round)
	if got != 0 {
		t.Fatalf("OST write storm allocates %v allocs/op in steady state; want 0", got)
	}
}
