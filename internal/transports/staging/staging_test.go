package staging

import (
	"math"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// run executes one staged output step and returns the result (after the
// drain completes) plus the file system for inspection.
func run(t *testing.T, writers int, bytesPerRank int64, cfg Config,
	tweak func(*pfs.FileSystem)) (*iomethod.StepResult, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(9).FS
	fsCfg.NumOSTs = 16
	fs := pfs.MustNew(k, fsCfg)
	if tweak != nil {
		tweak(fs)
	}
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	m, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	wg := iomethodtest.LaunchStep(w, m, "stg", iomethodtest.Same(iomethod.VarSpec{Name: "f", Bytes: bytesPerRank, Min: 0, Max: 1}), func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run() // drains complete when the queue empties
	if wg.Count() != 0 {
		t.Fatal("ranks did not finish")
	}
	k.Shutdown()
	if m.steps.Get("stg") != nil {
		t.Error("step still live after its ranks returned")
	}
	return res, fs
}

func TestStagingConservation(t *testing.T) {
	const W = 16
	const size = 8 * int64(pfs.MB)
	res, fs := run(t, W, size, Config{Nodes: 4}, nil)
	if math.Abs(res.TotalBytes-float64(W*size)) > 1 {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if res.Index() == nil || res.Index().NumEntries() != W {
		t.Fatalf("index incomplete: %+v", res.Index())
	}
	if res.Files != 4 {
		t.Fatalf("files = %d", res.Files)
	}
	ing := fs.TotalBytesIngested()
	if math.Abs(ing-(res.TotalBytes+res.IndexBytes)) > 16 {
		t.Fatalf("FS ingested %v, want %v", ing, res.TotalBytes+res.IndexBytes)
	}
}

func TestAsynchronyHidesStorageTime(t *testing.T) {
	// With generous buffers, the application-blocking time is network
	// transfer only; the drain finishes much later.
	res, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 4, BufferBytes: 1 * pfs.GB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	if res.DrainElapsed <= res.Elapsed*1.5 {
		t.Fatalf("drain (%.3fs) should greatly outlast the blocking span (%.3fs)",
			res.DrainElapsed, res.Elapsed)
	}
}

func TestLimitedBufferDegeneratesTowardSynchronous(t *testing.T) {
	// The paper's point: buffer space bounds the achievable asynchronicity.
	// With a buffer that fits only one block per node, later ranks block on
	// earlier drains.
	big, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 2, BufferBytes: 1 * pfs.GB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	small, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 2, BufferBytes: 33 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	if small.Elapsed <= big.Elapsed*2 {
		t.Fatalf("tight buffers should push blocking time toward drain time: %.3fs vs %.3fs",
			small.Elapsed, big.Elapsed)
	}
}

func TestStagingDoesNotEscapeInterference(t *testing.T) {
	// The drain still crosses the interfered file system: with loaded
	// targets and tight buffers, staging slows down too.
	cfg := Config{Nodes: 2, BufferBytes: 40 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
		OSTs: []int{0, 1}}
	clean, _ := run(t, 16, 32*int64(pfs.MB), cfg, nil)
	loaded, _ := run(t, 16, 32*int64(pfs.MB), cfg, func(fs *pfs.FileSystem) {
		// Competing jobs on the drain targets: slow disks and occupied
		// caches, the combination a busy production system presents.
		for _, i := range []int{0, 1} {
			fs.OST(i).SetSlowFactor(0.15)
			fs.OST(i).SetExternalStreams(3)
		}
	})
	if loaded.Elapsed <= clean.Elapsed*1.3 {
		t.Fatalf("interference should reach through staging: %.3fs vs %.3fs",
			loaded.Elapsed, clean.Elapsed)
	}
}

func TestLeastLoadedDrainAvoidsSlowTarget(t *testing.T) {
	base := Config{Nodes: 4, BufferBytes: 64 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
		OSTs: []int{0, 1, 2, 3}}
	slow := func(fs *pfs.FileSystem) { fs.OST(0).SetSlowFactor(0.1) }

	rr := base
	rr.Policy = DrainRoundRobin
	roundRobin, _ := run(t, 16, 32*int64(pfs.MB), rr, slow)

	ll := base
	ll.Policy = DrainLeastLoaded
	leastLoaded, _ := run(t, 16, 32*int64(pfs.MB), ll, slow)

	if leastLoaded.DrainElapsed >= roundRobin.DrainElapsed {
		t.Fatalf("least-loaded drain (%.3fs) should beat round-robin (%.3fs) with a slow target",
			leastLoaded.DrainElapsed, roundRobin.DrainElapsed)
	}
	// Conservation must hold regardless of placement.
	if leastLoaded.Index().NumEntries() != 16 {
		t.Fatal("least-loaded drain lost index entries")
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 1, mpisim.Options{})
	m, err := New(w, fs, Config{Nodes: 1, BufferBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	iomethodtest.LaunchStep(w, m, "s", iomethodtest.Same(iomethod.VarSpec{Name: "v", Bytes: 4096}), func(_ *mpisim.Rank, _ *iomethod.StepResult, err error) { stepErr = err })
	k.Run()
	k.Shutdown()
	if stepErr == nil {
		t.Fatal("oversized block accepted")
	}
}

// TestOversizedBlockDrainsRest refuses rank 0's block on a node it shares
// with rank 1: rank 0 keeps its error, the node's drainer stops waiting for
// the refused block, so rank 1's block lands, the node's index is written
// and the step is forgotten once both ranks return.
func TestOversizedBlockDrainsRest(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	m, err := New(w, fs, Config{Nodes: 1, BufferBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var res *iomethod.StepResult
	wg := iomethodtest.LaunchStep(w, m, "s", func(r *mpisim.Rank) iomethod.RankData {
		// Sizes vary by rank, so each rank's block is its own shape.
		return iomethod.NewShape(nil, iomethod.VarSpec{Name: "v", Bytes: int64(4096 - 3584*r.Rank())}).Rank(r.Rank())
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		errs[r.Rank()] = err
		if r.Rank() == 1 {
			res = rr
		}
	})
	k.Run()
	k.Shutdown()
	if wg.Count() != 0 {
		t.Fatal("ranks did not finish")
	}
	if errs[0] == nil || errs[1] != nil {
		t.Fatalf("rank errors %v, want rank 0 oversized and rank 1 clean", errs)
	}
	if m.steps.Get("s") != nil {
		t.Error("step still live after its ranks returned")
	}
	if res.IndexBytes <= 0 || res.DrainElapsed <= 0 {
		t.Fatalf("node never committed its index: IndexBytes %v, DrainElapsed %v", res.IndexBytes, res.DrainElapsed)
	}
	if _, ok := res.Index().Lookup("v", 1); !ok {
		t.Fatal("rank 1's block is not in the index")
	}
	if n := res.Index().NumEntries(); n != 1 {
		t.Fatalf("index holds %d blocks, want rank 1's alone", n)
	}
}

// semHolder acquires n bytes, holds them for hold seconds, and releases.
type semHolder struct {
	pc      int
	id      int
	n, hold float64
	sem     *byteSem
	order   *[]int
}

func (h *semHolder) Step(c *simkernel.ContProc) bool {
	switch h.pc {
	case 0:
		h.pc = 1
		if !h.sem.acquireCont(c, h.n) {
			return false
		}
		fallthrough
	case 1:
		*h.order = append(*h.order, h.id)
		h.pc = 2
		c.SleepSeconds(h.hold)
		return false
	default:
		h.sem.release(h.n)
		return true
	}
}

func TestByteSemFIFO(t *testing.T) {
	k := simkernel.New()
	sem := &byteSem{free: 100}
	var order []int
	acquire := func(id int, n float64) {
		k.SpawnCont(&semHolder{id: id, n: n, hold: 1, sem: sem, order: &order})
	}
	acquire(1, 80)
	acquire(2, 80) // must wait for 1
	acquire(3, 10) // fits now, but FIFO: queued behind 2
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want FIFO [1 2 3]", order)
	}
	if sem.Free() != 100 {
		t.Fatalf("leaked bytes: free = %v", sem.Free())
	}
}

func TestStagingDeterministic(t *testing.T) {
	a, _ := run(t, 12, 16*int64(pfs.MB), Config{Nodes: 3}, nil)
	b, _ := run(t, 12, 16*int64(pfs.MB), Config{Nodes: 3}, nil)
	if a.Elapsed != b.Elapsed || a.DrainElapsed != b.DrainElapsed {
		t.Fatalf("nondeterministic staging: %v/%v vs %v/%v",
			a.Elapsed, a.DrainElapsed, b.Elapsed, b.DrainElapsed)
	}
}
