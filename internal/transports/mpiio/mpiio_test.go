package mpiio

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/iomethod"
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
	wg := launchStep(w, m, "out", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "u", Bytes: bytesPerRank, Min: 0, Max: 1},
		}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
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
	if res.Global == nil || res.Global.NumEntries() != W {
		t.Fatalf("index entries = %v", res.Global)
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

func TestNoFlushOption(t *testing.T) {
	with, _ := run(t, 16, 4, 32*int64(pfs.MB), nil, Config{})
	without, _ := run(t, 16, 4, 32*int64(pfs.MB), nil, Config{NoFlush: true})
	if without.Elapsed >= with.Elapsed {
		t.Fatalf("NoFlush should shorten the timed region: %v vs %v", without.Elapsed, with.Elapsed)
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
	wg := launchStep(w, m, "split", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "u", Bytes: 4 * int64(pfs.MB)}}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
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
	if res.Global == nil || res.Global.NumEntries() != 16 || len(res.Global.Locals) != 4 {
		t.Fatalf("index wrong: %+v", res.Global)
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
		launchStep(w, m, "s", func(r *mpisim.Rank) iomethod.RankData {
			return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "u", Bytes: 32 * int64(pfs.MB)}}}
		}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
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
