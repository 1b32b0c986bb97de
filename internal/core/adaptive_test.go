package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/iomethod"
	"repro/internal/iomethod/iomethodtest"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// harness runs one adaptive output step with uniform per-rank data and
// returns the result and file system for inspection.
func harness(t *testing.T, writers, targets int, bytesPerRank int64, tweak func(*pfs.FileSystem), cfg Config) (*iomethod.StepResult, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = targets + 4 // room for the global index file
	fs := pfs.MustNew(k, fsCfg)
	if tweak != nil {
		tweak(fs)
	}
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	if len(cfg.OSTs) == 0 {
		cfg.OSTs = make([]int, targets)
		for i := range cfg.OSTs {
			cfg.OSTs[i] = i
		}
	}
	a, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	var stepErr error
	wg := iomethodtest.LaunchStep(w, a, "step0", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "rho", Bytes: bytesPerRank / 2, Min: -1, Max: 1},
			{Name: "phi", Bytes: bytesPerRank - bytesPerRank/2, Min: 0, Max: 2},
		}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			stepErr = err
			return
		}
		res = rr
	})
	k.Run()
	if wg.Count() != 0 {
		t.Fatalf("%d ranks never finished (deadlock)", wg.Count())
	}
	k.Shutdown()
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if a.steps.Get("step0") != nil {
		t.Error("step still live after its ranks returned")
	}
	return res, fs
}

func TestPlanGroupsProperties(t *testing.T) {
	f := func(w8, t8 uint8) bool {
		W := int(w8%200) + 1
		T := int(t8%64) + 1
		groups := planGroups(simkernel.New(), W, T)
		if len(groups) == 0 || len(groups) > T {
			return false
		}
		seen := make([]bool, W)
		prev := -1
		for _, g := range groups {
			if len(g) == 0 {
				return false // no empty groups
			}
			for _, r := range g {
				if r != prev+1 { // contiguous, ascending coverage
					return false
				}
				prev = r
				if r < 0 || r >= W || seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return prev == W-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanGroupsBalance(t *testing.T) {
	groups := planGroups(simkernel.New(), 100, 8)
	min, max := 1<<30, 0
	for _, g := range groups {
		if len(g) < min {
			min = len(g)
		}
		if len(g) > max {
			max = len(g)
		}
	}
	if max-min > 1+(100/8) { // gsize=13: sizes 13..9; allow modest spread
		t.Fatalf("groups unbalanced: min=%d max=%d", min, max)
	}
}

func TestBasicStepConservation(t *testing.T) {
	const W, T = 16, 4
	const bytesPerRank = 8 * int64(pfs.MB)
	res, fs := harness(t, W, T, bytesPerRank, nil, Config{})
	wantBytes := float64(W * bytesPerRank)
	if math.Abs(res.TotalBytes-wantBytes) > 1 {
		t.Fatalf("total bytes %v, want %v", res.TotalBytes, wantBytes)
	}
	// Every byte (payload + indices) must have been ingested by the FS.
	ing := fs.TotalBytesIngested()
	if math.Abs(ing-(wantBytes+res.IndexBytes)) > wantBytes*1e-6+16 {
		t.Fatalf("FS ingested %v, want payload %v + index %v", ing, wantBytes, res.IndexBytes)
	}
	if res.Files != T {
		t.Fatalf("files = %d, want %d", res.Files, T)
	}
	for r, wt := range res.WriterTimes {
		if wt <= 0 {
			t.Fatalf("writer %d time %v", r, wt)
		}
		if wt > res.Elapsed+1e-9 {
			t.Fatalf("writer %d time %v exceeds elapsed %v", r, wt, res.Elapsed)
		}
	}
}

func TestGlobalIndexCompleteAndNonOverlapping(t *testing.T) {
	const W, T = 24, 6
	const bytesPerRank = 4 * int64(pfs.MB)
	res, _ := harness(t, W, T, bytesPerRank, nil, Config{})
	g := res.Index()
	if g == nil {
		t.Fatal("no global index")
	}
	if got := g.NumEntries(); got != W*2 {
		t.Fatalf("index entries = %d, want %d", got, W*2)
	}
	// Each rank's two variables must be present exactly once.
	for r := 0; r < W; r++ {
		for _, v := range []string{"rho", "phi"} {
			if _, ok := g.Lookup(v, int32(r)); !ok {
				t.Fatalf("missing index entry %s/rank%d", v, r)
			}
		}
	}
	// Within each file, [offset, offset+length) ranges must not overlap.
	for _, li := range g.Locals {
		type span struct{ lo, hi int64 }
		var spans []span
		for _, e := range li.Entries {
			spans = append(spans, span{e.Offset, e.Offset + e.Length})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Fatalf("overlapping blocks in %s: %+v vs %+v", li.File, spans[i], spans[j])
				}
			}
		}
	}
}

func TestOneWriterPerTargetInvariant(t *testing.T) {
	const W, T = 32, 4
	cfg := Config{}
	res, fs := harness(t, W, T, 2*int64(pfs.MB), nil, cfg)
	_ = res
	// Data targets 0..T-1 must never have seen more than one concurrent
	// write stream (the method's central invariant); the +4 spare targets
	// host only the global index.
	for i := 0; i < T; i++ {
		if mc := fs.OST(i).Stats.MaxConcurrency; mc > 1 {
			t.Fatalf("OST %d saw %d concurrent writers; adaptive IO promises 1", i, mc)
		}
	}
}

func TestWritersPerTargetGeneralization(t *testing.T) {
	const W, T = 32, 4
	res, fs := harness(t, W, T, 2*int64(pfs.MB), nil, Config{WritersPerTarget: 2})
	if math.Abs(res.TotalBytes-float64(W*2*int64(pfs.MB))) > 1 {
		t.Fatalf("conservation broken with WritersPerTarget=2: %v", res.TotalBytes)
	}
	for i := 0; i < T; i++ {
		if mc := fs.OST(i).Stats.MaxConcurrency; mc > 2 {
			t.Fatalf("OST %d saw %d concurrent writers with limit 2", i, mc)
		}
	}
}

func TestAdaptiveShiftsWorkFromSlowTargets(t *testing.T) {
	const W, T = 32, 4
	slow := func(fs *pfs.FileSystem) {
		fs.OST(0).SetSlowFactor(0.15) // one crawling target
	}
	// 32 MB per rank so each group pushes 256 MB through the 96 MB OST
	// cache: the slow target's writers throttle to its degraded drain rate
	// and lag, which is what gives the coordinator work to shift.
	res, _ := harness(t, W, T, 32*int64(pfs.MB), slow, Config{})
	if res.AdaptiveWrites == 0 {
		t.Fatal("no adaptive writes despite a 6x-slow target")
	}
	// The slow group's writers must still all complete and be indexed.
	if got := res.Index().NumEntries(); got != W*2 {
		t.Fatalf("index entries = %d, want %d", got, W*2)
	}
}

func TestAdaptiveBeatsNoAdaptationUnderImbalance(t *testing.T) {
	run := func(adapt bool) float64 {
		k := simkernel.New()
		fsCfg := machines.Jaguar(7).FS
		fsCfg.NumOSTs = 8
		fs := pfs.MustNew(k, fsCfg)
		fs.OST(0).SetSlowFactor(0.12)
		fs.OST(1).SetSlowFactor(0.25)
		w := mpisim.NewWorld(k, 32, mpisim.Options{})
		cfg := Config{OSTs: []int{0, 1, 2, 3}}
		if !adapt {
			// The pure ablation: identical structure, coordinator
			// work-shifting off.
			cfg.DisableAdaptation = true
		}
		a, err := New(w, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res *iomethod.StepResult
		iomethodtest.LaunchStep(w, a, "s", func(r *mpisim.Rank) iomethod.RankData {
			// 32 MB per rank: each group's 256 MB overwhelms the 96 MB
			// target cache, so slow targets actually queue writers and
			// adaptation has work to shift.
			return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: 32 * int64(pfs.MB)}}}
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
	adaptive := run(true)
	pinned := run(false)
	if adaptive >= pinned {
		t.Fatalf("adaptation did not help under imbalance: adaptive=%.3fs pinned=%.3fs", adaptive, pinned)
	}
}

func TestFewerWritersThanTargets(t *testing.T) {
	res, _ := harness(t, 3, 8, int64(pfs.MB), nil, Config{})
	if res.Files != 3 {
		t.Fatalf("files = %d, want 3 (one per writer)", res.Files)
	}
	if res.Index().NumEntries() != 6 {
		t.Fatalf("entries = %d", res.Index().NumEntries())
	}
}

func TestSingleWriter(t *testing.T) {
	res, _ := harness(t, 1, 4, int64(pfs.MB), nil, Config{})
	if res.Files != 1 || res.Index().NumEntries() != 2 {
		t.Fatalf("single-writer result: files=%d entries=%d", res.Files, res.Index().NumEntries())
	}
}

func TestMultipleSequentialSteps(t *testing.T) {
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 8
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 8, mpisim.Options{})
	a, err := New(w, fs, Config{OSTs: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var steps []*iomethod.StepResult
	// One launch per step; running the kernel dry between launches
	// separates the steps, so every rank finishes step s before any rank
	// starts step s+1.
	for s := 0; s < 3; s++ {
		iomethodtest.LaunchStep(w, a, fmt.Sprintf("step%d", s), func(r *mpisim.Rank) iomethod.RankData {
			return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: int64(pfs.MB)}}}
		}, func(r *mpisim.Rank, res *iomethod.StepResult, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			if r.Rank() == 0 {
				steps = append(steps, res)
			}
		})
		k.Run()
	}
	k.Shutdown()
	if len(steps) != 3 {
		t.Fatalf("completed %d steps", len(steps))
	}
	for i, res := range steps {
		if res.Index() == nil || res.Index().Step != int64(i) {
			t.Fatalf("step %d index sequence wrong: %+v", i, res.Index())
		}
	}
}

func TestStaggerOpensReducesMDSQueue(t *testing.T) {
	mdsPeak := func(stagger time.Duration) int {
		k := simkernel.New()
		fsCfg := machines.Jaguar(7).FS
		fsCfg.NumOSTs = 40
		fsCfg.MDSCapacity = 1
		fs := pfs.MustNew(k, fsCfg)
		w := mpisim.NewWorld(k, 32, mpisim.Options{})
		a, err := New(w, fs, Config{
			OSTs:         seq(32),
			StaggerOpens: stagger,
		})
		if err != nil {
			t.Fatal(err)
		}
		var peak int
		iomethodtest.LaunchStep(w, a, "s", func(r *mpisim.Rank) iomethod.RankData {
			return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: 1024}}}
		}, func(r *mpisim.Rank, res *iomethod.StepResult, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			peak = res.MDSOpenQueuePeak
		})
		k.Run()
		k.Shutdown()
		return peak
	}
	burst := mdsPeak(0)
	staggered := mdsPeak(50 * time.Millisecond)
	if staggered >= burst {
		t.Fatalf("stagger did not reduce MDS queueing: %d vs %d", staggered, burst)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sample := func() (float64, []float64, int) {
		res, _ := harness(t, 16, 4, 4*int64(pfs.MB), func(fs *pfs.FileSystem) {
			fs.OST(1).SetSlowFactor(0.3)
		}, Config{})
		return res.Elapsed, res.WriterTimes, res.AdaptiveWrites
	}
	e1, w1, a1 := sample()
	e2, w2, a2 := sample()
	if e1 != e2 || a1 != a2 {
		t.Fatalf("nondeterministic: elapsed %v/%v adaptive %d/%d", e1, e2, a1, a2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("writer %d time diverged", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	if _, err := New(w, fs, Config{OSTs: []int{99}}); err == nil {
		t.Error("out-of-range OST accepted")
	}
	if _, err := New(w, fs, Config{WritersPerTarget: -1}); err == nil {
		t.Error("negative WritersPerTarget accepted")
	}
	a, err := New(w, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.cfg.OSTs) != 4 {
		t.Errorf("default OSTs = %v", a.cfg.OSTs)
	}
	k.Shutdown()
}

func TestNoGlobalIndexVariant(t *testing.T) {
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 8
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 8, mpisim.Options{})
	a, err := New(w, fs, Config{OSTs: []int{0, 1}, NoGlobalIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	iomethodtest.LaunchStep(w, a, "s", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: 1024}}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run()
	k.Shutdown()
	// The in-memory merged index is still produced for the caller, but no
	// global index file is written.
	if res.Index() == nil {
		t.Fatal("merged index missing")
	}
	if fs.Exists("s.gidx.bp") {
		t.Fatal("global index file written despite NoGlobalIndex")
	}
}

func TestConservationProperty(t *testing.T) {
	f := func(w8, t8, kb uint8) bool {
		W := int(w8%24) + 1
		T := int(t8%6) + 1
		size := int64(kb%64+1) * 1024
		k := simkernel.New()
		fsCfg := machines.Jaguar(7).FS
		fsCfg.NumOSTs = T + 2
		fs := pfs.MustNew(k, fsCfg)
		w := mpisim.NewWorld(k, W, mpisim.Options{})
		a, err := New(w, fs, Config{OSTs: seq(T)})
		if err != nil {
			return false
		}
		var res *iomethod.StepResult
		wg := iomethodtest.LaunchStep(w, a, "s", func(r *mpisim.Rank) iomethod.RankData {
			return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: size}}}
		}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
			if err == nil {
				res = rr
			}
		})
		k.Run()
		k.Shutdown()
		if wg.Count() != 0 || res == nil {
			return false
		}
		return math.Abs(res.TotalBytes-float64(int64(W)*size)) < 1 &&
			res.Index().NumEntries() == W
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousRankSizes(t *testing.T) {
	// Ranks write different volumes (common for unstructured meshes); the
	// sub-coordinators assign offsets from the registered sizes and the
	// coordinator learns adaptive extents from completion reports — both
	// must hold with non-uniform data.
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 8
	fs := pfs.MustNew(k, fsCfg)
	fs.OST(0).SetSlowFactor(0.2) // force adaptation too
	w := mpisim.NewWorld(k, 24, mpisim.Options{})
	a, err := New(w, fs, Config{OSTs: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	var want int64
	wg := iomethodtest.LaunchStep(w, a, "het", func(r *mpisim.Rank) iomethod.RankData {
		size := int64(r.Rank()%5+1) * 4 * int64(pfs.MB)
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "mesh", Bytes: size, Min: 0, Max: 1},
		}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	for rank := 0; rank < 24; rank++ {
		want += int64(rank%5+1) * 4 * int64(pfs.MB)
	}
	k.Run()
	if wg.Count() != 0 {
		t.Fatal("deadlock with heterogeneous sizes")
	}
	k.Shutdown()
	if math.Abs(res.TotalBytes-float64(want)) > 1 {
		t.Fatalf("bytes = %v, want %v", res.TotalBytes, want)
	}
	// Index blocks must not overlap within any file and each rank's block
	// must have its own size.
	for _, li := range res.Index().Locals {
		type span struct{ lo, hi int64 }
		var spans []span
		for _, e := range li.Entries {
			wantLen := int64(int(e.WriterRank)%5+1) * 4 * int64(pfs.MB)
			if e.Length != wantLen {
				t.Fatalf("rank %d block length %d, want %d", e.WriterRank, e.Length, wantLen)
			}
			spans = append(spans, span{e.Offset, e.Offset + e.Length})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Fatalf("overlap in %s", li.File)
				}
			}
		}
	}
}

func TestManyGroupsManyWritersStress(t *testing.T) {
	// A larger configuration exercising message volume: 256 writers over
	// 32 targets with a mix of slow targets.
	k := simkernel.New()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 36
	fs := pfs.MustNew(k, fsCfg)
	for i := 0; i < 8; i++ {
		fs.OST(i).SetSlowFactor(0.2 + 0.1*float64(i%3))
	}
	w := mpisim.NewWorld(k, 256, mpisim.Options{})
	a, err := New(w, fs, Config{OSTs: seq(32)})
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	wg := iomethodtest.LaunchStep(w, a, "stress", func(r *mpisim.Rank) iomethod.RankData {
		// 64 MB per rank: each group pushes 512 MB through its target, so
		// the slow groups lag far enough behind for the coordinator to
		// shift their queued writers.
		return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: 64 * int64(pfs.MB)}}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run()
	if wg.Count() != 0 {
		t.Fatal("stress deadlock")
	}
	k.Shutdown()
	if res.Index().NumEntries() != 256 {
		t.Fatalf("entries = %d", res.Index().NumEntries())
	}
	if res.AdaptiveWrites == 0 {
		t.Fatal("no adaptation despite 8 slow targets")
	}
	if math.Abs(res.TotalBytes-float64(256*64*int64(pfs.MB))) > 1 {
		t.Fatalf("bytes = %v", res.TotalBytes)
	}
}
