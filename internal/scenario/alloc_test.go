package scenario

import (
	"runtime"
	"testing"
	"unsafe"

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

// TestJobMixReplicaAllocs gates a warmed replica's per-create cost on the
// one executor, for a job mix and for two single-workload kinds it runs as
// jobs. Every name a process uses is the point's, built once by nameJobs
// or compileJobs, the job records, rank bodies and openers come from the
// kernel's slabs, and a create only logs its name in the namespace, so what
// a warmed replica allocates is its fixed bookkeeping (the joiners, the
// worlds' launch closures, the IO) and its sample. When each create costs
// its name again (one allocation of a 24-byte string), or the bodies or
// the name tables are built per replica, the gate fails; so it does when
// paired IOR builds its 4.9 KB phase stream per replica. The IOR writers'
// own time and bandwidth slices (up to 12 B per create) are the sample's.
// The bounds hold under the race detector too.
func TestJobMixReplicaAllocs(t *testing.T) {
	const runs = 5
	storm := Scenario{
		Name: "alloc-storm", NumOSTs: 8, NoNoise: true, Samples: 1,
		Workload: Workload{Kind: KindOpenStorm, Writers: 256},
	}
	paired := Scenario{
		Name: "alloc-paired", Machine: "xtp", NumOSTs: 8, Samples: 1,
		Workload: Workload{Kind: KindPairedIOR, Writers: 64, SizeMB: 1, WithInterference: true},
	}
	for _, tc := range []struct {
		spec   Scenario
		bytes  float64 // per create
		allocs float64 // per create
	}{
		{allocMix(), 8, 0.1},
		{storm, 8, 0.1},
		{paired, 24, 0.2},
	} {
		s := tc.spec
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
			case JobKindMLRead, jobKindIOR, jobKindStorm:
				creates += jc.procs
			case JobKindMDTest:
				creates += jc.procs * jc.phases * jc.files
			}
		}
		pool := cluster.NewPool()
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
		pool.Close()
		n := float64(runs * creates)
		b := float64(after.TotalAlloc-before.TotalAlloc) / n
		a := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s replica: %.1f B and %.3f allocs per create (%d creates)", s.Name, b, a, creates)
		if b > tc.bytes || a >= tc.allocs {
			t.Errorf("warmed %s replica costs %.1f B and %.3f allocs per create; want ≤ %g B and < %g allocs",
				s.Name, b, a, tc.bytes, tc.allocs)
		}
	}
}

// TestJobAppContSize pins the app body's size on 64-bit platforms: one is
// carved per rank, 16,384 in fig5-xl's largest replica, and the body keeps
// its job's constants on the point's jobCfg rather than per rank.
func TestJobAppContSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(jobAppCont{}); got != 80 {
		t.Fatalf("jobAppCont is %d bytes, want 80", got)
	}
}
