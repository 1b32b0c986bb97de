package posix

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

func run(t *testing.T, writers, numOSTs int, bytesPerRank int64) (*iomethod.StepResult, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(6).FS
	fsCfg.NumOSTs = numOSTs
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	m, err := New(w, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	wg := iomethodtest.LaunchStep(w, m, "px", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "q", Bytes: bytesPerRank, Min: -2, Max: 2},
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
	if m.steps.Get("px") != nil {
		t.Error("step still live after its ranks returned")
	}
	return res, fs
}

func TestFilePerProcess(t *testing.T) {
	const W = 10
	res, fs := run(t, W, 4, 2*int64(pfs.MB))
	if res.Files != W {
		t.Fatalf("files = %d, want %d", res.Files, W)
	}
	for r := 0; r < W; r++ {
		if !fs.Exists("px.r" + pad(r) + ".bp") {
			t.Fatalf("missing file for rank %d", r)
		}
	}
	if math.Abs(res.TotalBytes-float64(W*2*int64(pfs.MB))) > 1 {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if res.Index() == nil || res.Index().NumEntries() != W {
		t.Fatal("global index incomplete")
	}
	if len(res.Index().Locals) != W {
		t.Fatalf("locals = %d", len(res.Index().Locals))
	}
}

func pad(r int) string {
	s := "000000"
	d := []byte(s)
	for i := len(d) - 1; i >= 0 && r > 0; i-- {
		d[i] = byte('0' + r%10)
		r /= 10
	}
	return string(d)
}

func TestRoundRobinPlacement(t *testing.T) {
	const W = 8
	_, fs := run(t, W, 4, int64(pfs.MB))
	for i := 0; i < 4; i++ {
		// 2 data writes + 2 index appends per OST.
		if got := fs.OST(i).Stats.WritesStarted; got != 4 {
			t.Fatalf("OST %d ops = %d, want 4", i, got)
		}
	}
}

func TestValidation(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 2})
	w := mpisim.NewWorld(k, 2, mpisim.Options{})
	if _, err := New(w, fs, Config{OSTs: []int{5}}); err == nil {
		t.Fatal("bad OST accepted")
	}
	k.Shutdown()
}

func TestDeterministic(t *testing.T) {
	a, _ := run(t, 8, 4, 4*int64(pfs.MB))
	b, _ := run(t, 8, 4, 4*int64(pfs.MB))
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestFailedRanksIndex pins the index's membership rule under failures. Of
// three ranks on three targets, rank 0's target is dead before its write,
// so its data is lost; rank 1's target dies once its data has landed, so
// its index append is lost; rank 2 writes normally. Every rank created its
// file, so each file is a local under its own name, and a block is in the
// index exactly when its data write succeeded: ranks 1 and 2 are, rank 0
// is not, and both landed blocks count in TotalBytes. Only rank 2's index
// append is charged.
func TestFailedRanksIndex(t *testing.T) {
	const W = 3
	k := simkernel.New()
	fsCfg := machines.Jaguar(6).FS
	fsCfg.NumOSTs = W
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, W, mpisim.Options{})
	m, err := New(w, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs.OST(0).SetHealth(pfs.Dead, 1)
	// Kill target 1 as soon as rank 1's data write has finished, before
	// its index append reaches the target one write latency later.
	var poll func()
	poll = func() {
		if fs.OST(1).Stats.WritesFinished > 0 {
			fs.OST(1).SetHealth(pfs.Dead, 1)
			return
		}
		k.AfterSeconds(1e-4, poll)
	}
	k.AfterSeconds(0, poll)
	var res *iomethod.StepResult
	errs := make([]error, W)
	wg := iomethodtest.LaunchStep(w, m, "px", func(r *mpisim.Rank) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "q", Bytes: 4 * int64(pfs.MB)}}}
	}, func(r *mpisim.Rank, rr *iomethod.StepResult, err error) {
		res, errs[r.Rank()] = rr, err
	})
	k.Run()
	if wg.Count() != 0 {
		t.Fatalf("%d ranks never finished", wg.Count())
	}
	k.Shutdown()
	if errs[0] == nil || errs[1] == nil || errs[2] != nil || res.WriteFailures != 2 {
		t.Fatalf("rank errors %v, %d write failures; want ranks 0 and 1 to fail", errs, res.WriteFailures)
	}
	g := res.Index()
	if g == nil || len(g.Locals) != W {
		t.Fatalf("index = %+v, want %d locals", g, W)
	}
	for r, li := range g.Locals {
		if li.File != "px.r"+pad(r)+".bp" {
			t.Errorf("local %d is named %q", r, li.File)
		}
		if want := min(r, 1); len(li.Entries) != want {
			t.Errorf("rank %d's local has %d entries, want %d", r, len(li.Entries), want)
		}
	}
	if want := float64(8 * pfs.MB); res.TotalBytes != want {
		t.Errorf("total bytes %v, want the two landed blocks' %v", res.TotalBytes, want)
	}
	if want := float64(res.LocalIndexLen(2)); res.IndexBytes != want {
		t.Errorf("index bytes %v, want rank 2's %v", res.IndexBytes, want)
	}
}
