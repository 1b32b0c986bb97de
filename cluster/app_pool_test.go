package cluster_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/adios"
	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/simkernel"
	"repro/internal/workloads"
)

// pixie3dSmall and pixie3dLarge are the per-rank outputs of the app
// replicas below, built once so their per-rank memos are warm before
// anything is measured.
var (
	pixie3dSmall = workloads.Pixie3DGen(workloads.Pixie3DSmall).PerRank
	pixie3dLarge = workloads.Pixie3DGen(workloads.Pixie3DLarge).PerRank
)

// appOut is what an app replica leaves behind to compare: the encoded
// global index, the per-writer times and the adaptive redirect count.
type appOut struct {
	index      []byte
	writers    []float64
	redirected int
}

// appStep runs one collective output step of method on c with target 0
// slowed, the shape of the scenario's app replicas, and returns its encoded
// global index, writer times and redirect count.
func appStep(t testing.TB, c *cluster.Cluster, method adios.Method, ranks int, perRank func(int) iomethod.RankData) appOut {
	t.Helper()
	c.SlowOST(0, 0.1)
	w := c.NewWorld(ranks)
	io, err := adios.NewIO(c, w, adios.Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	var out adios.StepOut
	w.LaunchCont(func(i int) cluster.RankCont {
		return &adios.WriteStep{IO: io, Step: "pixie3d.out", PerRank: perRank, Out: &out}
	})
	if _, err := c.Run(); err != nil {
		t.Fatalf("%s step at %d ranks did not finish: %v", method, ranks, err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result == nil || out.Result.Index() == nil {
		t.Fatalf("%s step at %d ranks did not complete with an index", method, ranks)
	}
	enc, err := out.Result.Index().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return appOut{index: enc, writers: out.Result.WriterTimes, redirected: out.Result.AdaptiveWrites}
}

// TestAppIndexReusedWorld runs adaptive and MPI-IO app replicas on one
// pooled world, first at 2,048 ranks and then at 512, so the later replicas
// carve their step state and index logs from slab memory the larger ones
// left dirty. Pixie3D-large blocks overrun the targets' caches, so
// production noise and the slow target make the adaptive coordinator
// redirect writes and its per-group slices are read as well as written. Each
// replica's encoded global index and writer times must equal those of a
// fresh cluster at the same seed.
func TestAppIndexReusedWorld(t *testing.T) {
	p := cluster.NewPool()
	defer p.Close()
	seed := int64(11)
	for _, ranks := range []int{2048, 512} {
		for _, method := range []adios.Method{adios.MethodAdaptive, adios.MethodMPI} {
			seed++
			cfg := cluster.Config{Seed: seed, NumOSTs: 64, ProductionNoise: true}
			c, err := p.Rent("jaguar", cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := appStep(t, c, method, ranks, pixie3dLarge)
			p.Return(c)

			fresh, err := cluster.Preset("jaguar", cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := appStep(t, fresh, method, ranks, pixie3dLarge)
			fresh.Shutdown()

			if method == adios.MethodAdaptive && want.redirected == 0 {
				t.Errorf("adaptive at %d ranks redirected no writes; the coordinator's slices went unread", ranks)
			}
			if got.redirected != want.redirected {
				t.Errorf("%s at %d ranks: %d redirected writes on the reused world, %d on a fresh one",
					method, ranks, got.redirected, want.redirected)
			}
			if !bytes.Equal(got.index, want.index) {
				t.Errorf("%s at %d ranks: reused world's global index (%d bytes) differs from a fresh world's (%d bytes)",
					method, ranks, len(got.index), len(want.index))
			}
			if len(got.writers) != len(want.writers) {
				t.Fatalf("%s at %d ranks: %d writer times, want %d", method, ranks, len(got.writers), len(want.writers))
			}
			for i := range want.writers {
				if got.writers[i] != want.writers[i] {
					t.Errorf("%s at %d ranks: writer %d took %v on the reused world, %v on a fresh one",
						method, ranks, i, got.writers[i], want.writers[i])
					break
				}
			}
		}
	}
}

// appReplicaCost runs warmed app replicas of method on a pooled jaguar
// world with 64 OSTs and 1,024 Pixie3D-small ranks, and reports the heap
// bytes and allocations each replica costs per rank.
func appReplicaCost(t *testing.T, method adios.Method) (bytesPerRank, allocsPerRank float64) {
	const ranks, runs = 1024, 5
	p := cluster.NewPool()
	defer p.Close()
	cfg := cluster.Config{Seed: 42, NumOSTs: 64}
	replica := func() {
		c, err := p.Rent("jaguar", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Return(c)
		w := c.NewWorld(ranks)
		io, err := adios.NewIO(c, w, adios.Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		var out adios.StepOut
		steps := simkernel.Local[simkernel.Slab[adios.WriteStep]](c.Kernel())
		w.LaunchCont(func(i int) cluster.RankCont {
			s := steps.New()
			*s = adios.WriteStep{IO: io, Step: "pixie3d.out", PerRank: pixie3dSmall, Out: &out}
			return s
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if out.Err != nil || out.Result == nil || len(out.Result.WriterTimes) != ranks {
			t.Fatalf("%s replica did not complete: %v", method, out.Err)
		}
	}
	replica() // builds the world
	replica() // warms its slabs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		replica()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs * ranks)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestMPIIOReplicaAllocs gates MPI-IO's carves: a warmed replica re-carves
// the previous one's step record, wait groups, rank machines, per-rank
// arrays and index log, and the kernel's slab the previous rank bodies,
// so what is left per rank is its writer time and a share of the replica's
// fixed bookkeeping — no allocation of its own.
func TestMPIIOReplicaAllocs(t *testing.T) {
	b, a := appReplicaCost(t, adios.MethodMPI)
	t.Logf("MPI-IO replica: %.0f B and %.2f allocs per rank", b, a)
	if b > 64 || a >= 0.05 {
		t.Fatalf("warmed MPI-IO replica costs %.0f B and %.2f allocs per rank; want ≤ 64 B and < 0.05 allocs", b, a)
	}
}

// TestAdaptiveReplicaAllocs gates the adaptive carves the same way: rank
// bodies, rank and sub-coordinator machines, per-rank and per-group arrays,
// the coordinator's slices and the step's index log all come from the
// previous replica's memory.
func TestAdaptiveReplicaAllocs(t *testing.T) {
	b, a := appReplicaCost(t, adios.MethodAdaptive)
	t.Logf("adaptive replica: %.0f B and %.2f allocs per rank", b, a)
	if b > 128 || a >= 0.5 {
		t.Fatalf("warmed adaptive replica costs %.0f B and %.2f allocs per rank; want ≤ 128 B and < 0.5 allocs", b, a)
	}
}

// TestPOSIXReplicaAllocs gates POSIX's carves: a warmed replica re-carves
// the previous one's step record, wait group, rank machines and index log,
// and takes its file names from the kernel's name cache, which built them
// for the first replica, so a rank allocates nothing of its own: 8 B and
// 0.01 allocs per rank, under the race detector too. A name built per rank
// again costs at least one allocation per rank.
func TestPOSIXReplicaAllocs(t *testing.T) {
	b, a := appReplicaCost(t, adios.MethodPOSIX)
	t.Logf("POSIX replica: %.0f B and %.2f allocs per rank", b, a)
	if b > 64 || a >= 0.05 {
		t.Fatalf("warmed POSIX replica costs %.0f B and %.2f allocs per rank; want ≤ 64 B and < 0.05 allocs", b, a)
	}
}

// TestStagingReplicaAllocs gates staging's carves: the step record, wait
// groups, rank machines, staging nodes (with their rings and drainers) and
// per-node arrays come from the previous replica's memory, and a staged
// block is a ring value, so a rank allocates nothing of its own.
func TestStagingReplicaAllocs(t *testing.T) {
	b, a := appReplicaCost(t, adios.MethodStaging)
	t.Logf("staging replica: %.0f B and %.2f allocs per rank", b, a)
	if b > 32 || a >= 0.1 {
		t.Fatalf("warmed staging replica costs %.0f B and %.2f allocs per rank; want ≤ 32 B and < 0.1 allocs", b, a)
	}
}
