package pfs

import (
	"math/bits"
	"testing"

	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// visitAllFlush is the reference flush walk: it visits every target of its
// snapshot in ascending order, drained or not, as the walk did before the
// file system kept a live set, and waits on each as a waiter of its own, as
// the walk did before flush cohorts.
type visitAllFlush struct {
	fs      *FileSystem
	pending []uint64
	i       int
	w       soloFlushWait
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

// soloFlushWait is one target's flush wait parked as a waiter of its own,
// whatever waits at the back of the target's queue: the walk's park before
// flush cohorts, recompute skip included. Its hop holds the one target, so
// once fired it has nothing left to walk and resumes the process alone.
type soloFlushWait struct {
	fs     *FileSystem
	o      *OST
	target []uint64
	parked bool
}

func (w *soloFlushWait) Step(c *simkernel.ContProc) bool {
	if w.parked {
		w.parked = false
		return true
	}
	o := w.o
	o.advance()
	if o.cacheLevel <= completionEps {
		return true
	}
	if w.target == nil {
		w.target = make([]uint64, len(w.fs.live))
	}
	clear(w.target)
	w.target[o.ID>>6] = 1 << (o.ID & 63)
	h := w.fs.hop(w.target)
	h.p, h.i, h.next, h.last = c.Proc(), o.ID>>6, nil, h
	behind := o.waiters.Len() > 0
	o.waiters.Push(flushWaiter{watermark: o.ingestedTotal, hop: h})
	if !behind || !o.recomputed {
		o.recompute()
	}
	w.parked = true
	c.Pause()
	return false
}

// flushReturn is one flush's return: the flusher, its round, and when.
type flushReturn struct {
	flusher, round int
	at             simkernel.Time
}

// loopFlush flushes *f, with a FileOp flush or with the reference walk,
// and logs the return; then, for each round left, writes bytes at off and
// flushes again, right after the flush returned.
type loopFlush struct {
	f         **File
	reference bool
	id        int
	rounds    int
	off, n    int64
	log       *[]flushReturn
	pc, round int
	op        FileOp
	ref       visitAllFlush
}

func (p *loopFlush) Step(c *simkernel.ContProc) bool {
	for {
		switch p.pc {
		case 0:
			var m simkernel.Cont = &p.op
			if p.reference {
				fs := (*p.f).fs
				p.ref = visitAllFlush{fs: fs, pending: append(p.ref.pending[:0], (*p.f).touched...), w: soloFlushWait{fs: fs, target: p.ref.w.target}}
				m = &p.ref
			} else {
				p.op.BeginFlush(*p.f)
			}
			p.pc = 1
			if !c.Call(m) {
				return false
			}
		case 1:
			*p.log = append(*p.log, flushReturn{p.id, p.round, c.Now()})
			if p.round++; p.round == p.rounds {
				return true
			}
			p.op.BeginWrite(*p.f, p.off, p.n)
			p.pc = 0
			if !c.Call(&p.op) {
				return false
			}
		}
	}
}

// flushLiveRun runs one flush campaign on a fresh file system: a file
// striped over 80 targets (two bitset words) and a second over the 40
// from 40 up (straddling the words), writes of random sizes to random
// stripes at random times, and bursts of flushers, of either file, that
// start in one instant while targets drain, go idle and are written again.
// Some flushers write and flush again as soon as a flush returns. Flushes
// of one file that reach a target in one instant park in one cohort, a
// later burst can join it, and the other file's flushes park apart. It
// returns the flushes' returns, in the order they happened, and the
// targets' final drained totals.
func flushLiveRun(seed int64, reference bool) (log []flushReturn, drained []float64) {
	const (
		targets = 80
		stripe  = 64
		writes  = 160
		bursts  = 16
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
	upper := Layout{OSTs: layout.OSTs[targets/2:], StripeSize: stripe}
	var files [2]*File
	var err error
	k.SpawnCont(run(
		create(fs, "shared", layout, &files[0], &err),
		create(fs, "upper", upper, &files[1], &err),
	))
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
		f := &files[rng.Intn(2)]
		off := int64(rng.Intn(len((*f).osts))) * stripe
		width := int64(len((*f).osts)) * stripe
		k.SpawnContAt(at, run(writeAt(f, off, min(n, stripe), nil), writeAt(f, off+width, n, nil)))
	}
	id := 0
	for range bursts {
		at := start + simkernel.FromSeconds(rng.Float64()*70)
		for range 1 + rng.Intn(6) {
			f := &files[rng.Intn(2)]
			m := &loopFlush{f: f, reference: reference, id: id, rounds: 1 + rng.Intn(3), log: &log}
			m.off = int64(rng.Intn(len((*f).osts))) * stripe
			m.n = int64(1 + rng.Intn(2*stripe))
			k.SpawnContAt(at, m)
			id++
		}
	}
	k.Run()
	for _, o := range fs.OSTs {
		drained = append(drained, o.drainedTotal)
	}
	k.Shutdown()
	return log, drained
}

// FuzzFlushWalk pins the flush walk against the reference that visits
// every target and parks each flush alone: for a campaign seed, the
// flushes must return in the same order, each at the same instant, and
// every target end with the same drained total. A walk that dropped a
// pending target because it was idle when the walk passed a lower one
// would miss that target's later writes and return early; a cohort joined
// by a flush with another walk left would take it along, and one that
// resumed its members out of order would return them so.
func FuzzFlushWalk(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, gotDrained := flushLiveRun(seed, false)
		want, wantDrained := flushLiveRun(seed, true)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: return %d was flusher %d's flush %d at %v; the reference's was flusher %d's flush %d at %v", seed, i, got[i].flusher, got[i].round, got[i].at, want[i].flusher, want[i].round, want[i].at)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d flushes returned, the reference's %d", seed, len(got), len(want))
		}
		for id := range wantDrained {
			if gotDrained[id] != wantDrained[id] {
				t.Fatalf("seed %d: OST %d drained %v bytes, the visit-every-target walk %v", seed, id, gotDrained[id], wantDrained[id])
			}
		}
	})
}
