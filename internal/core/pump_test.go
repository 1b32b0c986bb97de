package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The SC/C message pumps are continuation machines exchanging pooled scMsg
// envelopes over rank channels. These tests and benchmarks pin the cost of
// that exchange: the steady state must not allocate (the pool recycles
// envelopes, the pointer payload fits the interface word, and mpisim
// recycles its delivery events), and a full adaptive step must stay cheap.

// pumpBenchSC plays the sub-coordinator side of a synthetic exchange: send a
// writer its (target, offset) go signal, wait for the completion.
type pumpBenchSC struct {
	pool   *msgPool
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
			env := m.pool.get(kindWriteGo)
			env.target = 3
			env.offset = int64(m.rounds)
			r.Send(1, tagToWriter, env)
			m.pc = 1
			if !r.RecvCont(&m.recv, c, mpisim.AnySource, tagToSC) {
				return false
			}
		case 1:
			m.pool.put(m.recv.Msg().Data.(*scMsg))
			m.pc = 0
		}
	}
}

// pumpBenchWriter plays the writer side: wait for the go signal, report the
// write complete.
type pumpBenchWriter struct {
	pool   *msgPool
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
			m.pool.put(m.recv.Msg().Data.(*scMsg))
			m.rounds--
			out := m.pool.get(kindWriteComplete)
			out.writer = r.Rank()
			out.bytes = 1 << 20
			r.Send(0, tagToSC, out)
			m.pc = 0
		}
	}
}

// launchPump wires a two-rank world running the synthetic SC/writer
// exchange for the given number of rounds.
func launchPump(k *simkernel.Kernel, pool *msgPool, rounds int) {
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	w.LaunchCont(func(i int) mpisim.RankCont {
		if i == 0 {
			return &pumpBenchSC{pool: pool, rounds: rounds}
		}
		return &pumpBenchWriter{pool: pool, rounds: rounds}
	})
}

// TestSCPumpZeroAlloc is the allocation gate on the SC protocol hot path:
// once the pool, rings, and event freelists are warm, a full go/complete
// exchange (two pooled envelopes, two rank sends, two cont receives) must
// allocate nothing. A regression here — an envelope field that boxes, a
// queue that copies, a closure in the pump — shows up as a nonzero rate.
func TestSCPumpZeroAlloc(t *testing.T) {
	k := simkernel.New()
	var pool msgPool
	const warmup, measured = 1_000, 10_000
	launchPump(k, &pool, warmup+measured)
	// One round is two sends at 5us world latency each: 10us of virtual
	// time. Run the warmup rounds, snapshot, run the measured rounds.
	const roundNs = 10_000
	k.RunUntil(simkernel.Time(warmup * roundNs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run()
	runtime.ReadMemStats(&after)
	k.Shutdown()
	delta := after.Mallocs - before.Mallocs
	perOp := float64(delta) / measured
	t.Logf("%d allocations over %d exchanges (%.4f/op)", delta, measured, perOp)
	// Tolerate stray runtime allocations (ReadMemStats itself, background
	// sweeps) but nothing that scales with the exchange count.
	if perOp > 0.01 {
		t.Fatalf("SC pump steady state allocates: %d allocations over %d exchanges (%.4f/op), want 0",
			delta, measured, perOp)
	}
}

// BenchmarkSCPingPong measures one full SC/writer protocol exchange: pooled
// envelope out (go signal), pooled envelope back (write complete), through
// the world's latency-stamped delivery events.
func BenchmarkSCPingPong(b *testing.B) {
	b.ReportAllocs()
	k := simkernel.New()
	var pool msgPool
	launchPump(k, &pool, b.N)
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}

// BenchmarkAdaptiveStep measures the adaptive output step in steady state:
// one world (64 writers, 16 targets, 1 MB per rank), b.N sequential steps.
// Construction is outside the loop, so ns/op is the cost of one full step —
// coordinator, SCs, writers, index gather, global index write — dominated by
// the SC/C/writer message traffic the pumps carry.
func BenchmarkAdaptiveStep(b *testing.B) {
	b.ReportAllocs()
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 20
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 64, mpisim.Options{})
	osts := make([]int, 16)
	for j := range osts {
		osts[j] = j
	}
	a, err := New(w, fs, Config{OSTs: osts})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, b.N)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	data := iomethod.RankData{Vars: []iomethod.VarSpec{
		{Name: "rho", Bytes: 1 << 20, Min: -1, Max: 1},
	}}
	launchSteps(w, a, names, func(*mpisim.Rank) iomethod.RankData { return data }, func(_ *mpisim.Rank, _ *iomethod.StepResult, err error) {
		if err != nil {
			b.Error(err)
		}
	})
	b.ResetTimer()
	k.Run()
	k.Shutdown()
}
