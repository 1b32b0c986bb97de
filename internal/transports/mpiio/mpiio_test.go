package mpiio

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

func run(t *testing.T, writers, numOSTs int, bytesPerRank int64, tweak func(*pfs.FileSystem), cfg Config) (*iomethod.StepResult, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = numOSTs
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
	wg := iomethodtest.LaunchStep(w, m, "out", iomethodtest.Same(iomethod.VarSpec{Name: "u", Bytes: bytesPerRank, Min: 0, Max: 1}), func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run()
	if wg.Count() != 0 {
		t.Fatalf("%d ranks never finished", wg.Count())
	}
	k.Shutdown()
	if m.steps.Get("out") != nil {
		t.Error("step still live after its ranks returned")
	}
	return res, fs
}

func TestConservationAndSingleFile(t *testing.T) {
	const W = 16
	const size = 4 * int64(pfs.MB)
	res, fs := run(t, W, 8, size, nil, Config{})
	if math.Abs(res.TotalBytes-float64(W*size)) > 1 {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if res.Files != 1 {
		t.Fatalf("files = %d, want 1", res.Files)
	}
	if !fs.Exists("out.bp") {
		t.Fatal("shared file missing")
	}
	if res.Index() == nil || res.Index().NumEntries() != W {
		t.Fatalf("index entries = %v", res.Index())
	}
	ing := fs.TotalBytesIngested()
	if math.Abs(ing-(res.TotalBytes+res.IndexBytes)) > 16 {
		t.Fatalf("FS ingested %v, want %v", ing, res.TotalBytes+res.IndexBytes)
	}
}

func TestStripeCapAt160(t *testing.T) {
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = 512
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 4, mpisim.Options{})
	m, err := New(w, fs, Config{}) // asks for all 512
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.StripeTargets()); got != 160 {
		t.Fatalf("stripe targets = %d, want the Lustre 1.6 cap of 160", got)
	}
	k.Shutdown()
}

func TestEachRankMapsToOneTarget(t *testing.T) {
	const W = 12
	_, fs := run(t, W, 4, 2*int64(pfs.MB), nil, Config{})
	// With stripe size = block size, each rank's block lands on exactly one
	// OST; W=12 writers over 4 targets means 3 write streams per target
	// (plus rank 0's footer append).
	total := 0
	for i := 0; i < 4; i++ {
		total += fs.OST(i).Stats.WritesStarted
	}
	if total < W || total > W+1 {
		t.Fatalf("write ops across targets = %d, want %d(+footer)", total, W)
	}
}

func TestCollectiveCloseAlignsElapsed(t *testing.T) {
	res, _ := run(t, 8, 4, 8*int64(pfs.MB), nil, Config{})
	for i, wt := range res.WriterTimes {
		if wt <= 0 || wt > res.Elapsed {
			t.Fatalf("writer %d time %v vs elapsed %v", i, wt, res.Elapsed)
		}
	}
}

func TestSlowTargetStallsWholeCollective(t *testing.T) {
	elapsed := func(slow bool) float64 {
		res, _ := run(t, 16, 4, 32*int64(pfs.MB), func(fs *pfs.FileSystem) {
			if slow {
				fs.OST(0).SetSlowFactor(0.15)
			}
		}, Config{})
		return res.Elapsed
	}
	clean, degraded := elapsed(false), elapsed(true)
	if degraded < clean*1.5 {
		t.Fatalf("one slow target should stall the collective: %v vs %v", degraded, clean)
	}
}

func TestOSTRangeValidation(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	if _, err := New(w, fs, Config{OSTs: []int{7}}); err == nil {
		t.Fatal("out-of-range OST accepted")
	}
	k.Shutdown()
}

func TestDeterministic(t *testing.T) {
	a, _ := run(t, 16, 4, 8*int64(pfs.MB), nil, Config{})
	b, _ := run(t, 16, 4, 8*int64(pfs.MB), nil, Config{})
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic elapsed: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestSplitFilesConservationAndCoverage(t *testing.T) {
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = 16
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 16, mpisim.Options{})
	m, err := New(w, fs, Config{SplitFiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Files() != 4 {
		t.Fatalf("files = %d", m.Files())
	}
	var res *iomethod.StepResult
	wg := iomethodtest.LaunchStep(w, m, "split", iomethodtest.Same(iomethod.VarSpec{Name: "u", Bytes: 4 * int64(pfs.MB)}), func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run()
	if wg.Count() != 0 {
		t.Fatal("deadlock")
	}
	k.Shutdown()
	if res.Files != 4 {
		t.Fatalf("result files = %d", res.Files)
	}
	if math.Abs(res.TotalBytes-float64(16*4*int64(pfs.MB))) > 1 {
		t.Fatalf("bytes = %v", res.TotalBytes)
	}
	if res.Index() == nil || res.Index().NumEntries() != 16 || len(res.Index().Locals) != 4 {
		t.Fatalf("index wrong: %+v", res.Index())
	}
	for i := 0; i < 4; i++ {
		if !fs.Exists(fmt.Sprintf("split.part%02d.bp", i)) {
			t.Fatalf("missing part %d", i)
		}
	}
}

func TestSplitFilesWidenTargetCoverage(t *testing.T) {
	// The Section II-3 alternative: with a per-file stripe limit of 4 on a
	// 16-target system, 4 files reach all 16 targets while 1 file reaches 4.
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = 16
	fsCfg.MaxStripeCount = 4
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 8, mpisim.Options{})
	single, _ := New(w, fs, Config{})
	split, _ := New(w, fs, Config{SplitFiles: 4})
	if got := len(single.StripeTargets()); got != 4 {
		t.Fatalf("single-file targets = %d", got)
	}
	covered := map[int]bool{}
	for i := 0; i < 4; i++ {
		for _, o := range split.cohortOSTs(i) {
			covered[o] = true
		}
	}
	if len(covered) != 16 {
		t.Fatalf("split files cover %d targets, want 16", len(covered))
	}
	k.Shutdown()
}

func TestSplitFilesHelpButDoNotSolveInterference(t *testing.T) {
	// Paper: "This helps alleviate internal interference, but does not
	// solve it nor does it address external interference."
	elapsed := func(split int, slow bool) float64 {
		k := simkernel.New()
		fsCfg := machines.Jaguar(5).FS
		fsCfg.NumOSTs = 16
		fsCfg.MaxStripeCount = 4
		fs := pfs.MustNew(k, fsCfg)
		if slow {
			fs.OST(1).SetSlowFactor(0.15)
		}
		w := mpisim.NewWorld(k, 32, mpisim.Options{})
		m, err := New(w, fs, Config{SplitFiles: split})
		if err != nil {
			t.Fatal(err)
		}
		var res *iomethod.StepResult
		iomethodtest.LaunchStep(w, m, "s", iomethodtest.Same(iomethod.VarSpec{Name: "u", Bytes: 32 * int64(pfs.MB)}), func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			res = rr
		})
		k.Run()
		k.Shutdown()
		return res.Elapsed
	}
	// Splitting helps internal interference (more targets, fewer writers each).
	if s4 := elapsed(4, false); s4 >= elapsed(1, false) {
		t.Errorf("splitting did not alleviate internal interference")
	}
	// But a slow target still stalls the cohort mapped to it.
	clean := elapsed(4, false)
	degraded := elapsed(4, true)
	if degraded < clean*1.3 {
		t.Errorf("external interference should still hurt split files: %.2f vs %.2f",
			degraded, clean)
	}
}

func TestSplitFilesValidation(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 4, mpisim.Options{})
	if _, err := New(w, fs, Config{SplitFiles: -1}); err == nil {
		t.Error("negative split accepted")
	}
	m, err := New(w, fs, Config{SplitFiles: 99})
	if err != nil {
		t.Fatal(err)
	}
	if m.Files() != 4 { // clamped to world size
		t.Errorf("splits = %d, want clamp to 4", m.Files())
	}
	k.Shutdown()
}

// TestStepContSize pins the rank record's size on 64-bit platforms. The
// cohort's wait groups wake every rank at once, so the record is touched
// once per rank in a storm; it embeds one pfs.FileOp, not one op per kind.
func TestStepContSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(stepCont{}); got != 296 {
		t.Fatalf("stepCont is %d bytes, want 296", got)
	}
}

// TestFlushWakeupsSkipRankBody pins where a parked flush's wakeups go: to
// the pfs op the rank called, not to its rank body. One step of 64 ranks
// steps the bodies the same number of times whether the shared file spans
// 4 targets or 16, although each rank's flush parks at every touched
// target that has not drained yet (a body stepped on every flush wakeup
// reads about 500 and 1350).
func TestFlushWakeupsSkipRankBody(t *testing.T) {
	const ranks = 64
	bodySteps := func(numOSTs int) (steps int) {
		k := simkernel.New()
		fsCfg := machines.Jaguar(5).FS
		fsCfg.NumOSTs = numOSTs
		fs := pfs.MustNew(k, fsCfg)
		// Each target drains slower than the one below it, so a flush
		// walking them in ascending order finds every one still dirty.
		for i, o := range fs.OSTs {
			o.SetSlowFactor(1 / float64(1+i))
		}
		w := mpisim.NewWorld(k, ranks, mpisim.Options{})
		m, err := New(w, fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		wg := w.LaunchCont(func(int) mpisim.RankCont {
			return &iomethodtest.Body{M: m, Names: []string{"out"}, Calls: &steps,
				Data: iomethodtest.Same(iomethod.VarSpec{Name: "u", Bytes: 16 * int64(pfs.MB), Min: 0, Max: 1}),
				Done: func(_ *mpisim.Rank, _ *iomethod.StepResult, err error) {
					if err != nil {
						t.Error(err)
					}
				}}
		})
		k.Run()
		if wg.Count() != 0 {
			t.Fatalf("%d ranks never finished", wg.Count())
		}
		k.Shutdown()
		return steps
	}
	narrow, wide := bodySteps(4), bodySteps(16)
	if narrow != wide {
		t.Fatalf("rank bodies stepped %d times over 4 targets and %d over 16, want equal", narrow, wide)
	}
}
