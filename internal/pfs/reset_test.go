package pfs

import (
	"testing"

	"repro/internal/simkernel"
)

// mdsWorkload runs a small mixed metadata + data workload and returns its
// measured completion times plus the MDS service total (which exercises the
// reseeded lognormal stream).
func mdsWorkload(k *simkernel.Kernel, fs *FileSystem) (float64, float64, float64) {
	var t1, t2 float64
	var fa, fb *File
	k.SpawnCont("a", run(
		create(fs, "a", Layout{OSTs: []int{0, 1}, StripeSize: 100}, &fa, nil),
		writeAt(&fa, 0, 1000, nil),
		flush(&fa),
		closeFile(&fa),
		do(func() { t1 = k.Now().Seconds() }),
	))
	k.SpawnCont("b", run(
		create(fs, "b", Layout{StripeCount: 2}, &fb, nil),
		writeAt(&fb, 0, 800, nil),
		flush(&fb),
		closeFile(&fb),
		do(func() { t2 = k.Now().Seconds() }),
	))
	k.Run()
	return t1, t2, fs.MDS.Stats.TotalService
}

// TestFileSystemResetBitIdentical is the pfs layer's world-reuse contract: a
// Reset file system replays a workload bit-identically to a freshly built
// one — same completion times, same MDS service draws, clean namespace and
// round-robin allocator.
func TestFileSystemResetBitIdentical(t *testing.T) {
	cfg := flatConfig()
	cfg.Seed = 99

	fresh := func() (float64, float64, float64) {
		k := simkernel.New()
		fs := MustNew(k, cfg)
		defer k.Shutdown()
		return mdsWorkload(k, fs)
	}
	a1, a2, a3 := fresh()

	k := simkernel.New()
	defer k.Shutdown()
	dirty := flatConfig()
	dirty.Seed = 1234
	fs := MustNew(k, dirty)
	mdsWorkload(k, fs) // dirty the world with a different seed's run
	k.Reset()
	if err := fs.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || fs.Exists("b") {
		t.Fatal("Reset did not clear the namespace")
	}
	b1, b2, b3 := mdsWorkload(k, fs)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("reset world diverged: fresh (%v,%v,%v) vs reused (%v,%v,%v)",
			a1, a2, a3, b1, b2, b3)
	}
}

// TestFileSystemResetResizesOSTs covers reuse across configurations whose
// target counts differ in both directions.
func TestFileSystemResetResizesOSTs(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	cfg := flatConfig()
	cfg.Seed = 5
	fs := MustNew(k, cfg)

	grown := cfg
	grown.NumOSTs = 7
	if err := fs.Reset(grown); err != nil {
		t.Fatal(err)
	}
	if len(fs.OSTs) != 7 {
		t.Fatalf("grew to %d OSTs, want 7", len(fs.OSTs))
	}
	for i, o := range fs.OSTs {
		if o.ID != i {
			t.Fatalf("OST %d has ID %d", i, o.ID)
		}
	}

	shrunk := cfg
	shrunk.NumOSTs = 2
	if err := fs.Reset(shrunk); err != nil {
		t.Fatal(err)
	}
	if len(fs.OSTs) != 2 {
		t.Fatalf("shrank to %d OSTs, want 2", len(fs.OSTs))
	}
}

// TestFileSystemResetRejectsBadConfig keeps Reset's validation aligned with
// New's.
func TestFileSystemResetRejectsBadConfig(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, flatConfig())
	bad := flatConfig()
	bad.CacheBytes = -1
	if err := fs.Reset(bad); err == nil {
		t.Fatal("Reset accepted a config New would reject")
	}
}

// TestFileSystemResetSteadyStateZeroAlloc gates the reuse claim at the pfs
// layer: resetting a warmed file system at a fixed seed allocates nothing.
func TestFileSystemResetSteadyStateZeroAlloc(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	cfg := flatConfig()
	cfg.Seed = 77
	fs := MustNew(k, cfg)
	mdsWorkload(k, fs)
	k.Reset()
	if err := fs.Reset(cfg); err != nil { // warm the RNG seed caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		k.Reset()
		if err := fs.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("warm FileSystem.Reset allocates %v allocs/op; want 0", got)
	}
}
