package ior

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/machines"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// jaguarFS builds a Jaguar-calibrated file system scaled down to numOSTs
// targets (per-OST behaviour is what matters for ratio experiments).
func jaguarFS(numOSTs int) (*simkernel.Kernel, *pfs.FileSystem) {
	k := simkernel.New()
	cfg := machines.Jaguar(1).FS
	cfg.NumOSTs = numOSTs
	return k, pfs.MustNew(k, cfg)
}

func execute(t *testing.T, fs *pfs.FileSystem, cfg Config) Result {
	t.Helper()
	res, err := Execute(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasicConsistency(t *testing.T) {
	k, fs := jaguarFS(8)
	res := execute(t, fs, Config{Writers: 16, BytesPerWriter: 8 * pfs.MB})
	k.Shutdown()
	if len(res.WriterTimes) != 16 || len(res.PerWriterBW) != 16 {
		t.Fatalf("result sizes wrong: %d/%d", len(res.WriterTimes), len(res.PerWriterBW))
	}
	var max float64
	for i, wt := range res.WriterTimes {
		if wt <= 0 {
			t.Fatalf("writer %d time %v", i, wt)
		}
		if wt > max {
			max = wt
		}
	}
	if math.Abs(res.Elapsed-max) > 1e-12 {
		t.Fatalf("elapsed %v != max writer time %v", res.Elapsed, max)
	}
	if math.Abs(res.TotalBytes-16*8*pfs.MB) > 1 {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if math.Abs(res.AggregateBW-res.TotalBytes/res.Elapsed) > 1e-6 {
		t.Fatal("aggregate bandwidth inconsistent")
	}
	if res.ImbalanceFactor < 1 {
		t.Fatalf("imbalance factor %v < 1", res.ImbalanceFactor)
	}
}

func TestWritersSplitEvenlyAcrossOSTs(t *testing.T) {
	k, fs := jaguarFS(4)
	execute(t, fs, Config{Writers: 8, BytesPerWriter: 1 * pfs.MB})
	for i := 0; i < 4; i++ {
		if got := fs.OST(i).Stats.WritesStarted; got != 2 {
			t.Fatalf("OST %d served %d writes, want 2", i, got)
		}
	}
	k.Shutdown()
}

func TestExplicitOSTSubset(t *testing.T) {
	k, fs := jaguarFS(8)
	execute(t, fs, Config{Writers: 4, BytesPerWriter: 1 * pfs.MB, OSTs: []int{5, 6}})
	if fs.OST(5).Stats.WritesStarted != 2 || fs.OST(6).Stats.WritesStarted != 2 {
		t.Fatal("writers not confined to requested OSTs")
	}
	if fs.OST(0).Stats.WritesStarted != 0 {
		t.Fatal("write leaked to OST 0")
	}
	k.Shutdown()
}

func TestFlushLengthensTimedRegion(t *testing.T) {
	run := func(flush bool) float64 {
		k, fs := jaguarFS(4)
		defer k.Shutdown()
		// 8 writers per OST so the aggregate inflow exceeds the drain rate
		// and dirty bytes remain to flush when write() returns.
		res := execute(t, fs, Config{Writers: 32, BytesPerWriter: 64 * pfs.MB, Flush: flush})
		return res.Elapsed
	}
	noFlush := run(false)
	withFlush := run(true)
	if withFlush <= noFlush {
		t.Fatalf("flush did not lengthen timing: %v vs %v", withFlush, noFlush)
	}
}

func TestPerWriterBandwidthDecreasesWithContention(t *testing.T) {
	// The paper's Fig 1(b): per-writer bandwidth consistently decreases as
	// the writers-per-OST ratio grows.
	perWriter := func(writersPerOST int) float64 {
		k, fs := jaguarFS(8)
		defer k.Shutdown()
		res := execute(t, fs, Config{
			Writers:        8 * writersPerOST,
			BytesPerWriter: 128 * pfs.MB,
		})
		return res.MeanPerWriterBW()
	}
	prev := math.Inf(1)
	for _, ratio := range []int{1, 4, 16, 32} {
		bw := perWriter(ratio)
		if bw >= prev {
			t.Fatalf("per-writer BW did not decrease at ratio %d: %v >= %v", ratio, bw, prev)
		}
		prev = bw
	}
}

func TestAggregateBandwidthShapeLargeData(t *testing.T) {
	// The paper's Fig 1(a) for ≥128MB writers: aggregate rises from 1:1,
	// peaks around 4:1, and declines 16–28% from 16:1 to 32:1.
	agg := func(writersPerOST int) float64 {
		k, fs := jaguarFS(8)
		defer k.Shutdown()
		res := execute(t, fs, Config{
			Writers:        8 * writersPerOST,
			BytesPerWriter: 128 * pfs.MB,
		})
		return res.AggregateBW
	}
	a1, a4, a16, a32 := agg(1), agg(4), agg(16), agg(32)
	if a4 <= a1 {
		t.Fatalf("aggregate should rise 1:1→4:1 (%v vs %v)", a4, a1)
	}
	if a16 >= a4 {
		t.Fatalf("aggregate should decline 4:1→16:1 (%v vs %v)", a16, a4)
	}
	drop := (a16 - a32) / a16
	if drop < 0.10 || drop > 0.40 {
		t.Fatalf("16:1→32:1 decline = %.1f%%, want within the paper's band (16–28%%, tolerating 10–40)", 100*drop)
	}
}

func TestSmallWritesBenefitFromCache(t *testing.T) {
	// 1 MB writes stay cache-absorbed: aggregate keeps growing (or at least
	// does not collapse) through 32 writers per OST, unlike 128 MB writes.
	agg := func(bytes float64, ratio int) float64 {
		k, fs := jaguarFS(8)
		defer k.Shutdown()
		res := execute(t, fs, Config{Writers: 8 * ratio, BytesPerWriter: bytes})
		return res.AggregateBW
	}
	small4, small32 := agg(1*pfs.MB, 4), agg(1*pfs.MB, 32)
	big4, big32 := agg(128*pfs.MB, 4), agg(128*pfs.MB, 32)
	smallTrend := small32 / small4
	bigTrend := big32 / big4
	if smallTrend <= bigTrend {
		t.Fatalf("small writes should hold up better under contention: small %.2f vs big %.2f",
			smallTrend, bigTrend)
	}
	if small32 < small4*0.8 {
		t.Fatalf("1MB aggregate collapsed at 32:1 (%.2fx)", smallTrend)
	}
}

func TestSharedFileMode(t *testing.T) {
	k, fs := jaguarFS(8)
	res := execute(t, fs, Config{
		Writers:        16,
		BytesPerWriter: 4 * pfs.MB,
		Mode:           SharedFile,
		OSTs:           []int{0, 1, 2, 3},
	})
	k.Shutdown()
	if res.TotalBytes != 16*4*pfs.MB {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if !fs.Exists("ior0.shared") {
		t.Fatal("shared file missing")
	}
}

func TestTwoSimultaneousRunsInterfere(t *testing.T) {
	// The paper's "XTP with Int." experiment: two IOR programs at once.
	solo := func() float64 {
		k := simkernel.New()
		fs := pfs.MustNew(k, machines.XTP(3).FS)
		defer k.Shutdown()
		res := execute(t, fs, Config{Writers: 512, BytesPerWriter: 64 * pfs.MB, Job: fs.RegisterJob("A")})
		return res.Elapsed
	}()
	duo := func() float64 {
		k := simkernel.New()
		fs := pfs.MustNew(k, machines.XTP(3).FS)
		defer k.Shutdown()
		runA, err := Launch(fs, Config{Writers: 512, BytesPerWriter: 64 * pfs.MB, Job: fs.RegisterJob("A")})
		if err != nil {
			t.Fatal(err)
		}
		runB, err := Launch(fs, Config{Writers: 512, BytesPerWriter: 64 * pfs.MB, Job: fs.RegisterJob("B")})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if !runA.Done() || !runB.Done() {
			t.Fatal("runs did not complete")
		}
		return runA.Result().Elapsed
	}()
	if duo <= solo*1.2 {
		t.Fatalf("second IOR barely slowed the first: solo=%v duo=%v", solo, duo)
	}
}

func TestConfigErrors(t *testing.T) {
	k, fs := jaguarFS(4)
	defer k.Shutdown()
	if _, err := Launch(fs, Config{Writers: 0}); err == nil {
		t.Error("zero writers should error")
	}
	if _, err := Launch(fs, Config{Writers: 1, BytesPerWriter: -1}); err == nil {
		t.Error("negative size should error")
	}
	if _, err := Launch(fs, Config{Writers: 1, BytesPerWriter: 1, OSTs: []int{99}}); err == nil {
		t.Error("bad OST should error")
	}
}

func TestResultBeforeCompletionPanics(t *testing.T) {
	k, fs := jaguarFS(4)
	defer k.Shutdown()
	run, err := Launch(fs, Config{Writers: 2, BytesPerWriter: pfs.MB})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading result early")
		}
	}()
	_ = run.Result()
}

func TestDeterministicResults(t *testing.T) {
	sample := func() Result {
		k, fs := jaguarFS(8)
		defer k.Shutdown()
		return execute(t, fs, Config{Writers: 32, BytesPerWriter: 16 * pfs.MB})
	}
	a, b := sample(), sample()
	if a.Elapsed != b.Elapsed || a.AggregateBW != b.AggregateBW {
		t.Fatalf("nondeterministic IOR: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.WriterTimes {
		if a.WriterTimes[i] != b.WriterTimes[i] {
			t.Fatalf("writer %d time diverged", i)
		}
	}
}

// TestFileNameMatchesSprintf pins the fmt-free file names to the format
// they replace, around the zero padding's edges.
func TestFileNameMatchesSprintf(t *testing.T) {
	for _, job := range []int{0, 1, 12, 1 << 30} {
		for _, i := range []int{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 16383, 1234567} {
			if got, want := fileName(job, i), fmt.Sprintf("ior%d.%06d", job, i); got != want {
				t.Fatalf("fileName(%d, %d) = %q, want %q", job, i, got, want)
			}
		}
	}
}

// BenchmarkIORLaunch measures one file-per-process launch of 16,384
// writers on 512 targets, fig1's largest point: writer re-arming, file
// names and spawns, on a kernel (and with it its writer slab) and file
// system reset between launches as world reuse does.
func BenchmarkIORLaunch(b *testing.B) {
	k, fs := jaguarFS(512)
	cfg := Config{Writers: 16384, BytesPerWriter: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		if err := fs.Reset(fs.Cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := Launch(fs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIORWriterSize pins the writer record's size on 64-bit platforms. The
// start signal wakes every writer at once, so the record is touched once
// per writer in a storm; it embeds one pfs.FileOp, not one op per kind.
func TestIORWriterSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(iorWriter{}); got != 288 {
		t.Fatalf("iorWriter is %d bytes, want 288", got)
	}
}
