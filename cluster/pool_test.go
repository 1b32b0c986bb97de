package cluster

import (
	"testing"

	"repro/internal/interference"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// iorProbe runs a small IOR workload on the cluster and returns its
// per-writer times — a fingerprint of the whole world (noise draws, MDS
// service times, fluid-model evolution).
func iorProbe(t testing.TB, c *Cluster) []float64 {
	t.Helper()
	r, err := ior.Execute(c.FileSystem(), ior.Config{
		Writers:        8,
		BytesPerWriter: 64 * pfs.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.WriterTimes
}

func sameTimes(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterResetBitIdentical is the cluster-level determinism contract: a
// world dirtied by one replica and Reset for another replays that replica
// bit-identically to a freshly built world — production noise, artificial
// interference and slow-OST staging included.
func TestClusterResetBitIdentical(t *testing.T) {
	cfg := Config{Seed: 42, NumOSTs: 16, ProductionNoise: true}

	run := func(c *Cluster) []float64 {
		c.SlowOST(3, 0.5)
		c.StartArtificialInterference(nil, 0, 0)
		return iorProbe(t, c)
	}

	fresh := Jaguar(cfg)
	want := run(fresh)
	fresh.Shutdown()

	reused := Jaguar(Config{Seed: 7, NumOSTs: 16, ProductionNoise: true})
	defer reused.Shutdown()
	run(reused) // dirty the world with a different replica
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := run(reused); !sameTimes(got, want) {
		t.Fatalf("reset world diverged:\n got %v\nwant %v", got, want)
	}
}

// TestClusterResetNoiseToggle covers noise-off replicas on a reused world:
// noise on → off → on again must still replay bit-identically, and the off
// replica must see a clean machine.
func TestClusterResetNoiseToggle(t *testing.T) {
	on := Config{Seed: 9, NumOSTs: 8, ProductionNoise: true}
	off := Config{Seed: 9, NumOSTs: 8}

	fresh := Jaguar(on)
	want := iorProbe(t, fresh)
	fresh.Shutdown()

	freshOff := Jaguar(off)
	wantOff := iorProbe(t, freshOff)
	freshOff.Shutdown()

	c := Jaguar(on)
	defer c.Shutdown()
	iorProbe(t, c)
	if err := c.Reset(off); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumOSTs(); i++ {
		o := c.FileSystem().OST(i)
		if o.SlowFactor() != 1 || o.ExternalStreams() != 0 {
			t.Fatalf("noise-off reset left OST %d perturbed", i)
		}
	}
	if got := iorProbe(t, c); !sameTimes(got, wantOff) {
		t.Fatalf("noise-off replica on reused world diverged")
	}
	if err := c.Reset(on); err != nil {
		t.Fatal(err)
	}
	if got := iorProbe(t, c); !sameTimes(got, want) {
		t.Fatalf("noise-on replica after off replica diverged from fresh world")
	}
}

// TestPoolRentReusesWorld pins the pool mechanics: same-shape rentals get
// the same world back (reset), different shapes get different worlds, and
// construction errors surface from Rent.
func TestPoolRentReusesWorld(t *testing.T) {
	p := NewPool()
	defer p.Close()

	a, err := p.Rent("xtp", Config{Seed: 1, NumOSTs: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Return(a)
	b, err := p.Rent("xtp", Config{Seed: 2, NumOSTs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same-shape rental did not reuse the returned world")
	}
	other, err := p.Rent("xtp", Config{Seed: 2, NumOSTs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if other == b {
		t.Fatal("different OST count must not share a world")
	}
	p.Return(b)
	p.Return(other)
	if _, err := p.Rent("nonexistent", Config{}); err == nil {
		t.Fatal("Rent must surface Preset errors")
	}
}

// failEpisodes scripts n crash episodes, one per target from OST 0 up, each
// crashing before the first data write as in failScript.
func failEpisodes(n int) interference.FailureConfig {
	cfg := interference.FailureConfig{Enabled: n > 0, DeadTimeout: 0.2}
	for i := 0; i < n; i++ {
		cfg.Episodes = append(cfg.Episodes, interference.FailureEpisode{
			OST: i, At: 0.0001 * float64(i+1), DeadFor: 0.5, RebuildFor: 1, RebuildTax: 0.4,
		})
	}
	return cfg
}

// TestClusterResetAcrossStructures pins Reset's grow and trim paths: one
// world is Reset through OST counts 4 → 8 → 4 → 8, failure-episode counts
// 1 → 3 → 0 → 1 and production noise on → off → on → on, and after each
// Reset replays its replica bit-identically to a freshly built world. A
// noise-off replica must leave every target unperturbed and a failure-free
// one every target Healthy.
func TestClusterResetAcrossStructures(t *testing.T) {
	steps := []Config{
		{Seed: 1, NumOSTs: 4, ProductionNoise: true, Failures: failEpisodes(1)},
		{Seed: 2, NumOSTs: 8, Failures: failEpisodes(3)},
		{Seed: 3, NumOSTs: 4, ProductionNoise: true, Failures: failEpisodes(0)},
		{Seed: 4, NumOSTs: 8, ProductionNoise: true, Failures: failEpisodes(1)},
	}
	probe := func(c *Cluster) []float64 {
		times, _ := worldProbe(t, c, 8)
		return append(times, iorProbe(t, c)...)
	}
	c := Jaguar(Config{Seed: 9, NumOSTs: 6, ProductionNoise: true, Failures: failEpisodes(2)})
	defer c.Shutdown()
	probe(c) // dirty the world
	for i, cfg := range steps {
		fresh := Jaguar(cfg)
		want := probe(fresh)
		fresh.Shutdown()

		if err := c.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if got := probe(c); !sameTimes(got, want) {
			t.Fatalf("step %d: reset world diverged from a fresh one:\n got %v\nwant %v", i, got, want)
		}
		if c.NumOSTs() != cfg.NumOSTs {
			t.Fatalf("step %d: %d OSTs, want %d", i, c.NumOSTs(), cfg.NumOSTs)
		}
		for j := 0; j < c.NumOSTs(); j++ {
			o := c.FileSystem().OST(j)
			if !cfg.ProductionNoise && (o.SlowFactor() != 1 || o.ExternalStreams() != 0) {
				t.Fatalf("step %d: noise-off replica perturbed OST %d (slow %v, streams %d)",
					i, j, o.SlowFactor(), o.ExternalStreams())
			}
			if !cfg.Failures.Enabled && o.Health() != pfs.Healthy {
				t.Fatalf("step %d: failure-free replica left OST %d %v", i, j, o.Health())
			}
		}
	}
}

// TestPoolRentSurvivesDirtyReturn is the poison test: a world returned
// mid-flight (flows in progress, writers parked — the state an errored or
// abandoned replica leaves behind) must still produce bit-identical results
// on its next rental.
func TestPoolRentSurvivesDirtyReturn(t *testing.T) {
	cfg := Config{Seed: 21, NumOSTs: 8, ProductionNoise: true}

	fresh := Jaguar(cfg)
	want := iorProbe(t, fresh)
	fresh.Shutdown()

	p := NewPool()
	defer p.Close()
	dirty, err := p.Rent("jaguar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Abandon a replica mid-write: launch the workload but only advance the
	// clock partway, leaving parked writers and in-flight flows.
	if _, err := ior.Launch(dirty.FileSystem(), ior.Config{Writers: 8, BytesPerWriter: 64 * pfs.MB}); err != nil {
		t.Fatal(err)
	}
	dirty.RunFor(simkernel.FromSeconds(0.05).Duration())
	p.Return(dirty)

	c, err := p.Rent("jaguar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Return(c)
	if c != dirty {
		t.Fatal("expected the dirty world back")
	}
	if got := iorProbe(t, c); !sameTimes(got, want) {
		t.Fatalf("world dirtied by an abandoned replica diverged after reset:\n got %v\nwant %v", got, want)
	}
}

// TestWorldReuseZeroAlloc gates the tentpole's allocation claim: the
// steady-state rent → run → (reset) → return cycle on a warmed, noise-free
// world allocates nothing. The seed is fixed — steady state means the RNG
// seed-expansion caches are warm, as in a benchmark's repeated replicas.
// The writers are continuation processes driving OST write ops, as every
// production body is (the blocking OST.Write facade allocates its op).
func TestWorldReuseZeroAlloc(t *testing.T) {
	p := NewPool()
	defer p.Close()
	cfg := Config{Seed: 42, NumOSTs: 4}

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
		t.Fatalf("rent/run/reset/return cycle allocates %v allocs/op in steady state; want 0", got)
	}
}

// TestIORReplicaAllocs gates the replica slabs: on a warmed pooled world an
// IOR replica re-arms the previous replica's writer machines, file records,
// touched bitsets and OST lists, so the only allocation per writer is its
// file name. The rest — the run's result slices and join primitives — is
// per launch, a handful against 1,024 writers.
func TestIORReplicaAllocs(t *testing.T) {
	const writers = 1024
	p := NewPool()
	defer p.Close()
	cfg := Config{Seed: 42, NumOSTs: 64}
	replica := func() {
		c, err := p.Rent("jaguar", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Return(c)
		r, err := ior.Execute(c.FileSystem(), ior.Config{
			Writers:        writers,
			BytesPerWriter: 4 * pfs.MB,
			Flush:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.FailedWriters != 0 || len(r.WriterTimes) != writers {
			t.Fatalf("replica: %d writers failed, %d times", r.FailedWriters, len(r.WriterTimes))
		}
	}
	replica() // builds the world
	replica() // warms the slabs
	if got := testing.AllocsPerRun(5, replica) / writers; got >= 2 {
		t.Fatalf("warmed IOR replica allocates %.2f allocs per writer; want < 2 (the file name)", got)
	}
}

// BenchmarkReplicaSetupTeardown isolates per-replica world lifecycle cost:
// fresh-build (construct + shutdown, the pre-reuse path) versus reset (the
// pooled path). The workload itself is excluded — this is the overhead the
// reuse layer amortises. Run with -benchmem to compare the two paths'
// allocs/op.
func BenchmarkReplicaSetupTeardown(b *testing.B) {
	cfg := Config{Seed: 42, NumOSTs: 64, ProductionNoise: true}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := Jaguar(cfg)
			c.Shutdown()
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		c := Jaguar(cfg)
		defer c.Shutdown()
		if err := c.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Reset(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
