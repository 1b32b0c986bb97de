package scenario

import (
	"runtime"
	"testing"

	"repro/cluster"
)

// allocMix is a small job mix whose creates are mostly an mdtest storm:
// one MPI app job, one mlread job creating a shard per rank and one mdtest
// job creating procs × phases × files burst files.
func allocMix() Scenario {
	return Scenario{
		Name:      "alloc-mix",
		NumOSTs:   8,
		Samples:   1,
		Transport: Transport{Method: "MPI", OSTs: 8},
		Jobs: []JobSpec{
			{Name: "ckpt", Kind: JobKindApp, Generator: "pixie3d-small", Procs: 8,
				Phases: 2, PeriodSeconds: 5},
			{Name: "train", Kind: JobKindMLRead, Procs: 8, SizeMB: 1,
				Phases: 2, PeriodSeconds: 2, StartSeconds: 1},
			{Name: "meta", Kind: JobKindMDTest, Procs: 8, FilesPerRank: 32,
				Phases: 2, PeriodSeconds: 1},
		},
	}
}

// TestJobMixReplicaAllocs gates the job-mix replica's per-create cost: every
// name a rank uses is the point's, built once by nameJobs, the rank bodies
// come from the kernel's slabs and a create only logs its name in the
// namespace, so a warmed replica's allocations are its fixed bookkeeping
// (the worlds' launch closures, the IO and the sample): 2.7 B and 0.067
// allocs per create here, under the race detector too. When each create
// costs its name again (one allocation of a 24-byte string), or the rank
// bodies or the name map are built per replica, the gate fails.
func TestJobMixReplicaAllocs(t *testing.T) {
	const runs = 5
	s := allocMix()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.point(s.Points()[0].Params)
	if err != nil {
		t.Fatal(err)
	}
	creates := 0
	for _, jc := range cfg.jobs {
		switch jc.kind {
		case JobKindMLRead:
			creates += jc.procs
		case JobKindMDTest:
			creates += jc.procs * jc.phases * jc.files
		}
	}
	pool := cluster.NewPool()
	defer pool.Close()
	replica := func() {
		if _, err := s.execReplica(cfg, 42, pool, nil); err != nil {
			t.Fatal(err)
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
	n := float64(runs * creates)
	b := float64(after.TotalAlloc-before.TotalAlloc) / n
	a := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("job-mix replica: %.1f B and %.3f allocs per create (%d creates)", b, a, creates)
	if b > 8 || a >= 0.1 {
		t.Fatalf("warmed job-mix replica costs %.1f B and %.3f allocs per create; want ≤ 8 B and < 0.1 allocs", b, a)
	}
}
