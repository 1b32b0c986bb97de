package pfs

import (
	"math/bits"
	"testing"

	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// visitAllFlush is the reference flush walk: it visits every target of its
// snapshot in ascending order, drained or not, as the walk did before the
// file system kept a live set.
type visitAllFlush struct {
	fs      *FileSystem
	pending []uint64
	i       int
	w       ostFlushWait
}

func (op *visitAllFlush) Step(c *simkernel.ContProc) bool {
	for op.i < len(op.pending) {
		w := op.pending[op.i]
		if w == 0 {
			op.i++
			continue
		}
		// The target being visited is the lowest pending one until its
		// wait completes.
		op.w.o = op.fs.OSTs[op.i*64+bits.TrailingZeros64(w)]
		if !op.w.Step(c) {
			return false
		}
		op.pending[op.i] = w & (w - 1)
	}
	return true
}

// timedFlush flushes *f, with a FileOp flush or with the reference walk, and
// records when the flush returns.
type timedFlush struct {
	f         **File
	reference bool
	armed     bool
	op        FileOp
	ref       visitAllFlush
	at        *simkernel.Time
}

func (p *timedFlush) Step(c *simkernel.ContProc) bool {
	if !p.armed {
		p.armed = true
		var m simkernel.Cont = &p.op
		if p.reference {
			fs := (*p.f).fs
			p.ref = visitAllFlush{fs: fs, pending: append([]uint64(nil), (*p.f).touched...), w: ostFlushWait{fs: fs}}
			m = &p.ref
		} else {
			p.op.BeginFlush(*p.f)
		}
		if !c.Call(m) {
			return false
		}
	}
	*p.at = c.Now()
	return true
}

// flushLiveRun runs one flush campaign on a fresh file system: a file
// striped over 80 targets (two bitset words), writes of random sizes to
// random stripes at random times, and flushers that start at random times
// while targets drain, go idle and are written again. It returns when each
// flusher returned, and the targets' final drained totals.
func flushLiveRun(seed int64, reference bool) (flushed []simkernel.Time, drained []float64) {
	const (
		targets  = 80
		stripe   = 64
		writes   = 160
		flushers = 40
	)
	cfg := flatConfig()
	cfg.NumOSTs = targets
	cfg.MaxStripeCount = targets
	cfg.ClientCap = 200 // faster than the disk, so caches fill and flushes wait
	k := simkernel.New()
	fs := MustNew(k, cfg)
	layout := Layout{OSTs: make([]int, targets), StripeSize: stripe}
	for i := range layout.OSTs {
		layout.OSTs[i] = i
	}
	var f *File
	var err error
	k.SpawnCont(run(create(fs, "shared", layout, &f, &err)))
	k.Run()
	if err != nil {
		panic(err)
	}
	rng := rngx.New(seed)
	start := k.Now()
	for i := 0; i < writes; i++ {
		at := start + simkernel.FromSeconds(rng.Float64()*60)
		// Most writes are small, so their targets drain within the run and
		// go idle; a few are large enough to keep a target dirty for a while.
		n := int64(1 + rng.Intn(300))
		if rng.Intn(8) == 0 {
			n = int64(1000 + rng.Intn(4000))
		}
		off := int64(rng.Intn(targets)) * stripe
		k.SpawnContAt(at, run(writeAt(&f, off, min(n, stripe), nil), writeAt(&f, off+targets*stripe, n, nil)))
	}
	flushed = make([]simkernel.Time, flushers)
	for i := range flushed {
		at := start + simkernel.FromSeconds(rng.Float64()*70)
		k.SpawnContAt(at, &timedFlush{f: &f, reference: reference, at: &flushed[i]})
	}
	k.Run()
	for _, o := range fs.OSTs {
		drained = append(drained, o.drainedTotal)
	}
	k.Shutdown()
	return flushed, drained
}

// FuzzFlushWalk pins the flush walk's live-set skip against the reference
// that visits every target: for a campaign seed, each flusher must return
// at the same instant and every target end with the same drained total. A
// walk that dropped a pending target because it was idle when the walk
// passed a lower one would miss that target's later writes and return
// early.
func FuzzFlushWalk(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, gotDrained := flushLiveRun(seed, false)
		want, wantDrained := flushLiveRun(seed, true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: flusher %d returned at %v, the visit-every-target walk at %v", seed, i, got[i], want[i])
			}
		}
		for id := range wantDrained {
			if gotDrained[id] != wantDrained[id] {
				t.Fatalf("seed %d: OST %d drained %v bytes, the visit-every-target walk %v", seed, id, gotDrained[id], wantDrained[id])
			}
		}
	})
}
