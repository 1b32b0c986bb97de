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
func worldProbe(t testing.TB, c *Cluster) ([]float64, *mpisim.World) {
	t.Helper()
	const ranks = 8
	w := c.NewWorld(ranks)
	times := make([]float64, ranks)
	j := w.LaunchCont(func(i int) RankCont {
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
	c.RunUntilDone(j)
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
	want, _ := worldProbe(t, fresh)
	fresh.Shutdown()

	c := XTP(Config{Seed: 11, NumOSTs: 4})
	defer c.Shutdown()
	_, first := worldProbe(t, c) // dirty the world with a failure-free replica
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, second := worldProbe(t, c)
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

// TestWorldCacheSizeChangeRebuilds covers the cache-slot replacement path:
// a replica with a different rank count must not inherit a wrong-sized
// world.
func TestWorldCacheSizeChangeRebuilds(t *testing.T) {
	c := XTP(Config{Seed: 3, NumOSTs: 4})
	defer c.Shutdown()
	w8 := c.NewWorld(8)
	if err := c.Reset(Config{Seed: 4, NumOSTs: 4}); err != nil {
		t.Fatal(err)
	}
	w16 := c.NewWorld(16)
	if w16.Size() != 16 || w16.MPI() == w8.MPI() {
		t.Fatal("size-changed replica reused a wrong-sized world")
	}
	if err := c.Reset(Config{Seed: 5, NumOSTs: 4}); err != nil {
		t.Fatal(err)
	}
	if w := c.NewWorld(16); w.MPI() != w16.MPI() {
		t.Fatal("matching size after rebuild did not reuse the replacement world")
	}
}

// TestFailureWorldReuseZeroAlloc extends the pool's zero-alloc gate to the
// failure lifecycle: the steady-state rent → run → reset → return cycle
// stays allocation-free with a crash/rebuild script armed each replica and
// a write failing against the dead target. Like TestWorldReuseZeroAlloc it
// runs its writers as continuation processes.
func TestFailureWorldReuseZeroAlloc(t *testing.T) {
	p := &Pool{worlds: make(map[poolKey]*Cluster)}
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
			k.SpawnCont("w", &writes[i])
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
