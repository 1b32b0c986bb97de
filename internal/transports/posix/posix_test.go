package posix

import (
	"math"
	"testing"

	"repro/internal/iomethod"
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
	wg := launchStep(w, m, "px", func(r *mpisim.Rank) iomethod.RankData {
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
	if res.Global == nil || res.Global.NumEntries() != W {
		t.Fatal("global index incomplete")
	}
	if len(res.Global.Locals) != W {
		t.Fatalf("locals = %d", len(res.Global.Locals))
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
