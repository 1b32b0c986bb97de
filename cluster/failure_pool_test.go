package cluster

import (
	"fmt"
	"testing"

	"repro/internal/interference"
	"repro/internal/mpisim"
	"repro/internal/pfs"
)

func failScript() interference.FailureConfig {
	return interference.FailureConfig{
		Enabled: true,
		// Crash before the first data write is issued (creates only touch
		// the MDS), so new writes against OST 0 fail rather than stall.
		Episodes:    []interference.FailureEpisode{{OST: 0, At: 0.0001, DeadFor: 0.5, RebuildFor: 1, RebuildTax: 0.4}},
		DeadTimeout: 0.2,
	}
}

// worldProbe runs a small rank workload through the cluster's world layer
// (exercising the recycled mpisim world and rank mailboxes: the ranks meet
// at a message barrier between their write and their close) and returns a
// per-rank completion-time fingerprint plus the backing mpisim world.
func worldProbe(t testing.TB, c *Cluster, ranks int) ([]float64, *mpisim.World) {
	t.Helper()
	w := c.NewWorld(ranks)
	times := make([]float64, ranks)
	w.LaunchCont(func(i int) RankCont {
		return &fileRank{
			fs:      c.FileSystem(),
			name:    fmt.Sprintf("probe.%06d", i),
			bytes:   4 * int64(pfs.MB),
			barrier: true,
			created: func(err error) bool {
				if err != nil {
					t.Error(err)
					return false
				}
				return true
			},
			wrote: func(err error) {
				if err != nil {
					// A write against the scripted dead target times out;
					// the rank still participates in the barrier.
					times[i] = -c.Now()
				}
			},
			closed: func() {
				if times[i] == 0 {
					times[i] = c.Now()
				}
			},
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return times, w.MPI()
}

// TestWorldCacheReuseBitIdentical pins the recycled-world contract: a Reset
// cluster hands back the SAME mpisim world (rank shells, mailboxes,
// freelists recycled in place) and the replica replays bit-identically to a
// fresh build — with a failure script running, so the health lifecycle is
// covered by the reuse contract too.
func TestWorldCacheReuseBitIdentical(t *testing.T) {
	cfg := Config{Seed: 5, NumOSTs: 4, Failures: failScript()}

	fresh := XTP(cfg)
	want, _ := worldProbe(t, fresh, 8)
	fresh.Shutdown()

	c := XTP(Config{Seed: 11, NumOSTs: 4})
	defer c.Shutdown()
	_, first := worldProbe(t, c, 8) // dirty the world with a failure-free replica
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, second := worldProbe(t, c, 8)
	if first != second {
		t.Fatal("reset cluster rebuilt its mpisim world instead of recycling it")
	}
	if !sameTimes(got, want) {
		t.Fatalf("recycled-world replica diverged:\n got %v\nwant %v", got, want)
	}
	// The script actually ran: rank 0 writes to the dead OST 0 and fails.
	if got[0] >= 0 {
		t.Fatal("failure script did not produce the expected dead-target write failure")
	}
}

// TestWorldCacheSizeChangeResizes alternates two rank counts on one pooled
// cluster, as fig5-xl alternates 512 and 16,384 ranks: every replica must
// get the kernel's one recycled mpisim world, resized in place rather than
// rebuilt, and replay bit-identically to a fresh cluster at its seed.
func TestWorldCacheSizeChangeResizes(t *testing.T) {
	p := NewPool()
	defer p.Close()
	var world *mpisim.World
	for i, ranks := range []int{8, 24, 8, 24, 16, 8} {
		cfg := Config{Seed: int64(3 + i), NumOSTs: 4}
		c, err := p.Rent("xtp", cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, w := worldProbe(t, c, ranks)
		p.Return(c)
		if world == nil {
			world = w
		} else if w != world {
			t.Fatalf("replica %d (%d ranks) built a new mpisim world instead of resizing the recycled one", i, ranks)
		}
		if w.Size() != ranks || len(got) != ranks {
			t.Fatalf("replica %d: world of %d ranks and %d times, want %d", i, w.Size(), len(got), ranks)
		}

		fresh := XTP(cfg)
		want, _ := worldProbe(t, fresh, ranks)
		fresh.Shutdown()
		if !sameTimes(got, want) {
			t.Fatalf("replica %d (%d ranks) on the resized world diverged from a fresh cluster:\n got %v\nwant %v",
				i, ranks, got, want)
		}
	}
}

// TestFailureWorldReuseZeroAlloc extends the pool's zero-alloc gate to the
// failure lifecycle: the steady-state rent → run → reset → return cycle
// stays allocation-free with a crash/rebuild script armed each replica and
// a write failing against the dead target. Like TestWorldReuseZeroAlloc it
// runs its writers as continuation processes.
func TestFailureWorldReuseZeroAlloc(t *testing.T) {
	p := NewPool()
	defer p.Close()
	cfg := Config{Seed: 42, NumOSTs: 4, Failures: failScript()}

	// OST 0 dies at t=0.0001s; its write (issued at t=0, still in flight at
	// the crash) stalls and resumes on revival, exercising the in-flight
	// health path. The others run clean.
	var writes [4]pfs.OSTWriteOp
	cycle := func() {
		c, err := p.Rent("xtp", cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := c.Kernel()
		for i := range writes {
			writes[i].Begin(c.FileSystem().OST(i), 1000)
			k.SpawnCont(&writes[i])
		}
		k.Run()
		p.Return(c)
	}
	cycle() // builds the world
	cycle() // warms the reuse path
	got := testing.AllocsPerRun(100, cycle)
	if got != 0 {
		t.Fatalf("failure-lifecycle rent/run/reset/return cycle allocates %v allocs/op in steady state; want 0", got)
	}
}
