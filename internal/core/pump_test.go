package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The SC/C message pumps are continuation machines exchanging scMsg
// envelopes over rank channels. These tests and benchmarks pin the cost of
// that exchange: a warmed replica must not allocate (the envelopes come
// from slab chunks an earlier pass left, the pointer payload fits the
// interface word, and mpisim recycles its delivery events), and a full
// adaptive step must stay cheap.

// pumpBenchSC plays the sub-coordinator side of a synthetic exchange: send a
// writer its (target, offset) go signal, wait for the completion.
type pumpBenchSC struct {
	a      *Adaptive // only its envelope slab
	rounds int
	recv   mpisim.RecvOp
	pc     int
}

func (m *pumpBenchSC) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.rounds == 0 {
				return true
			}
			m.rounds--
			env := m.a.msg(kindWriteGo)
			env.target = 3
			env.offset = int64(m.rounds)
			r.Send(1, tagToWriter, env)
			m.pc = 1
			if !r.RecvCont(&m.recv, c, mpisim.AnySource, tagToSC) {
				return false
			}
		case 1:
			m.pc = 0
		}
	}
}

// pumpBenchWriter plays the writer side: wait for the go signal, report the
// write complete.
type pumpBenchWriter struct {
	a      *Adaptive // only its envelope slab
	rounds int
	recv   mpisim.RecvOp
	pc     int
}

func (m *pumpBenchWriter) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.rounds == 0 {
				return true
			}
			m.pc = 1
			if !r.RecvCont(&m.recv, c, mpisim.AnySource, tagToWriter) {
				return false
			}
		case 1:
			m.rounds--
			out := m.a.msg(kindWriteComplete)
			out.writer = r.Rank()
			out.bytes = 1 << 20
			r.Send(0, tagToSC, out)
			m.pc = 0
		}
	}
}

// launchPump wires a two-rank world running the synthetic SC/writer
// exchange for the given number of rounds, its envelopes carved from the
// kernel's envelope slab.
func launchPump(k *simkernel.Kernel, rounds int) {
	a := &Adaptive{msgs: simkernel.Local[simkernel.Slab[scMsg]](k)}
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	w.LaunchCont(func(i int) mpisim.RankCont {
		if i == 0 {
			return &pumpBenchSC{a: a, rounds: rounds}
		}
		return &pumpBenchWriter{a: a, rounds: rounds}
	})
}

// TestSCPumpZeroAlloc is the allocation gate on the SC protocol hot path in
// a warmed replica: after one pass, the kernel (and with it its slabs) is
// rewound as a pooled world is between replicas, and a second pass of full go/complete
// exchanges (two slab envelopes, two rank sends, two cont receives) must
// allocate nothing. A regression here — an envelope field that boxes, a
// queue that copies, a closure in the pump, envelopes that outgrow the
// slab's kept chunks — shows up as a nonzero rate.
func TestSCPumpZeroAlloc(t *testing.T) {
	k := simkernel.New()
	const measured = 10_000
	launchPump(k, measured)
	k.Run()
	k.Reset()
	launchPump(k, measured)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run()
	runtime.ReadMemStats(&after)
	k.Shutdown()
	delta := after.Mallocs - before.Mallocs
	perOp := float64(delta) / measured
	t.Logf("%d allocations over %d exchanges (%.4f/op)", delta, measured, perOp)
	// Tolerate stray runtime allocations (ReadMemStats itself, background
	// sweeps, the new world's queues warming up) but nothing that scales
	// with the exchange count.
	if perOp > 0.01 {
		t.Fatalf("SC pump allocates in a warmed replica: %d allocations over %d exchanges (%.4f/op), want 0",
			delta, measured, perOp)
	}
}

// BenchmarkSCPingPong measures one full SC/writer protocol exchange in a
// warmed replica: a slab envelope out (go signal), a slab envelope back
// (write complete), through the world's latency-stamped delivery events.
// Like TestSCPumpZeroAlloc, it rewinds the kernel and its slabs after an
// untimed first pass and times the second, so the envelopes reuse the
// chunks the first pass left.
func BenchmarkSCPingPong(b *testing.B) {
	b.ReportAllocs()
	k := simkernel.New()
	launchPump(k, b.N)
	k.Run()
	k.Reset()
	launchPump(k, b.N)
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}

// BenchmarkAdaptiveStep measures the adaptive output step in a warmed
// replica: one world (64 writers, 16 targets, 1 MB per rank), b.N
// sequential steps. Like BenchmarkSCPingPong, a first untimed pass fills the
// kernel's slabs and the world is rewound as a pooled world is between replicas, so
// the timed pass carves the first pass's memory: ns/op is the cost of one
// full step — coordinator, SCs, writers, index gather, global index write —
// dominated by the SC/C/writer message traffic the pumps carry, and B/op is
// what a step costs beyond a warmed replica.
func BenchmarkAdaptiveStep(b *testing.B) {
	b.ReportAllocs()
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 20
	fs := pfs.MustNew(k, fsCfg)
	const writers = 64
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	osts := make([]int, 16)
	for j := range osts {
		osts[j] = j
	}
	names := make([]string, b.N)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	data := iomethod.RankData{Vars: []iomethod.VarSpec{
		{Name: "rho", Bytes: 1 << 20, Min: -1, Max: 1},
	}}
	launch := func() {
		a, err := New(w, fs, Config{OSTs: osts})
		if err != nil {
			b.Fatal(err)
		}
		iomethodtest.LaunchSteps(w, a, names, func(*mpisim.Rank) iomethod.RankData { return data }, func(_ *mpisim.Rank, _ *iomethod.StepResult, err error) {
			if err != nil {
				b.Error(err)
			}
		})
	}
	launch()
	k.Run()
	k.Reset()
	if err := fs.Reset(fsCfg); err != nil {
		b.Fatal(err)
	}
	w = mpisim.NewWorld(k, writers, mpisim.Options{})
	launch()
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}
