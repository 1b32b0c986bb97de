package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/rngx"
)

// mixSpec is a three-job heterogeneous mix at toy scale: a phased
// checkpoint writer, a read-heavy training job and a metadata storm, all
// sharing one 4-OST file system.
func mixSpec() Scenario {
	return Scenario{
		Name:      "mix-test",
		NumOSTs:   4,
		Samples:   1,
		Transport: Transport{Method: "MPI", OSTs: 4},
		Jobs: []JobSpec{
			{Name: "ckpt", Kind: JobKindApp, Generator: "pixie3d-small", Procs: 4,
				Phases: 2, PeriodSeconds: 5},
			{Name: "train", Kind: JobKindMLRead, Procs: 4, SizeMB: 2,
				Phases: 3, PeriodSeconds: 2, StartSeconds: 1},
			{Name: "meta", Kind: JobKindMDTest, Procs: 2, FilesPerRank: 4,
				Phases: 2, PeriodSeconds: 1},
		},
	}
}

func TestJobMixRun(t *testing.T) {
	res, err := Run(mixSpec(), RunOptions{Seed: 42, Parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Samples) != 1 {
		t.Fatalf("want 1 point x 1 sample, got %+v", res.Points)
	}
	s := res.Points[0].Samples[0]
	if len(s.Jobs) != 3 {
		t.Fatalf("want 3 job samples, got %d", len(s.Jobs))
	}
	byName := map[string]JobSample{}
	for _, j := range s.Jobs {
		byName[j.Name] = j
	}

	ckpt := byName["ckpt"]
	// 4 ranks x 2 phases x 2 MB of data, plus a sliver of transport
	// index/metadata writes (also attributed to the job).
	if wantW := float64(4 * 2 * 2 * pfs.MB); ckpt.BytesWritten < wantW || ckpt.BytesWritten > wantW*1.01 {
		t.Errorf("ckpt wrote %g bytes, want within 1%% above %g", ckpt.BytesWritten, wantW)
	}
	if ckpt.BytesRead != 0 {
		t.Errorf("ckpt read %g bytes, want 0", ckpt.BytesRead)
	}

	train := byName["train"]
	if wantR := float64(4 * 3 * 2 * pfs.MB); train.BytesRead != wantR { // 4 ranks x 3 phases x 2 MB
		t.Errorf("train read %g bytes, want %g", train.BytesRead, wantR)
	}
	if train.BytesWritten != 0 {
		t.Errorf("train wrote %g bytes, want 0", train.BytesWritten)
	}
	if train.Start != 1 {
		t.Errorf("train start = %g, want 1", train.Start)
	}

	meta := byName["meta"]
	if wantW := float64(2 * 2 * 4 * 4096); meta.BytesWritten != wantW { // 2 ranks x 2 phases x 4 files x 4 KiB
		t.Errorf("meta wrote %g bytes, want %g", meta.BytesWritten, wantW)
	}
	if meta.MetaOps < 2*2*4 {
		t.Errorf("meta did %d metadata ops, want >= %d", meta.MetaOps, 2*2*4)
	}

	var total, makespan float64
	for _, j := range s.Jobs {
		total += j.BytesWritten + j.BytesRead
		if j.Elapsed <= j.Start {
			t.Errorf("job %s finished at %g before its start %g", j.Name, j.Elapsed, j.Start)
		}
		if j.BW <= 0 {
			t.Errorf("job %s has non-positive bandwidth %g", j.Name, j.BW)
		}
		if j.Elapsed > makespan {
			makespan = j.Elapsed
		}
	}
	if s.TotalBytes != total {
		t.Errorf("aggregate TotalBytes = %g, want per-job sum %g", s.TotalBytes, total)
	}
	if s.Elapsed != makespan {
		t.Errorf("aggregate Elapsed = %g, want makespan %g", s.Elapsed, makespan)
	}
}

// TestJobMixDeterminism pins the reuse and parallelism contracts for
// multi-application worlds: pooled runs at 1 and 8 workers must be
// bit-identical to the fresh-world reference (runFresh).
func TestJobMixDeterminism(t *testing.T) {
	spec := mixSpec()
	spec.Samples = 3 // several replicas per worker so pooled Reset actually runs

	const seed = 7
	want := runFresh(t, spec, seed)
	for _, parallel := range []int{1, 8} {
		res, err := Run(spec, RunOptions{Seed: seed, Parallel: parallel})
		if err != nil {
			t.Fatalf("run (parallel=%d): %v", parallel, err)
		}
		if !reflect.DeepEqual(res.Points, want) {
			t.Errorf("%d-worker pooled run diverged from fresh worlds:\n got %+v\nwant %+v", parallel, res.Points, want)
		}
	}
}

// TestJobMixWorldCrossesMixes pins world reuse across job mixes: the pool
// keys worlds by machine and target count alone, so a worker's world runs
// one mix, is Reset, and runs another with a different number of jobs,
// ranks and files, under either transport. Pooled runs at 1 and 2 workers
// must be bit-identical to the fresh-world reference (runFresh).
func TestJobMixWorldCrossesMixes(t *testing.T) {
	spec := mixSpec()
	spec.Samples = 2
	spec.Axes = []Axis{
		{Name: "njobs", Values: []Value{NumValue(1), NumValue(4), NumValue(2)}},
		{Name: "method", Values: []Value{StrValue("MPI"), StrValue("ADAPTIVE")}},
	}
	const seed = 13
	want := runFresh(t, spec, seed)
	if len(want) != 6 {
		t.Fatalf("points = %d, want 6", len(want))
	}
	for _, parallel := range []int{1, 2} {
		res, err := Run(spec, RunOptions{Seed: seed, Parallel: parallel})
		if err != nil {
			t.Fatalf("run (parallel=%d): %v", parallel, err)
		}
		if !reflect.DeepEqual(res.Points, want) {
			t.Errorf("%d-worker pooled run diverged from fresh worlds", parallel)
		}
	}
}

// TestJobMixTwoTransports runs an MPI-IO app job beside an adaptive one in
// each replica, each job's method set on the job itself. The two methods
// carve their step state from the kernel's shared slabs (ints, int64s,
// wait groups, index blocks) interleaved, phase after phase, so a stale
// carve shows up as a pooled run that differs from the fresh-world
// reference (runFresh), at 1 and at 2 workers.
func TestJobMixTwoTransports(t *testing.T) {
	spec := Scenario{
		Name:    "two-transports",
		NumOSTs: 4,
		Samples: 3,
		Jobs: []JobSpec{
			{Name: "mpi", Kind: JobKindApp, Generator: "pixie3d-small", Procs: 6,
				Phases: 2, PeriodSeconds: 1, Transport: Transport{Method: "MPI"}},
			{Name: "adaptive", Kind: JobKindApp, Generator: "pixie3d-small", Procs: 8,
				Phases: 2, PeriodSeconds: 1, Transport: Transport{Method: "ADAPTIVE"}},
		},
	}
	const seed = 5
	want := runFresh(t, spec, seed)
	for _, smp := range want[0].Samples {
		if len(smp.Jobs) != 2 {
			t.Fatalf("want 2 job samples, got %d", len(smp.Jobs))
		}
		for _, j := range smp.Jobs {
			if j.BytesWritten == 0 {
				t.Fatalf("job %s wrote nothing", j.Name)
			}
		}
	}
	for _, parallel := range []int{1, 2} {
		res, err := Run(spec, RunOptions{Seed: seed, Parallel: parallel})
		if err != nil {
			t.Fatalf("run (parallel=%d): %v", parallel, err)
		}
		if !reflect.DeepEqual(res.Points, want) {
			t.Errorf("%d-worker pooled run diverged from fresh worlds:\n got %+v\nwant %+v", parallel, res.Points, want)
		}
	}
}

func TestJobMixJSONRoundTrip(t *testing.T) {
	s := mixSpec()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got.Jobs, s.Jobs) {
		t.Errorf("jobs differ after round trip:\n got %+v\nwant %+v", got.Jobs, s.Jobs)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped spec invalid: %v", err)
	}
}

// TestJobMixNJobsCycling checks the "njobs" axis: templates cycle and
// replicated jobs get distinguishing name suffixes.
func TestJobMixNJobsCycling(t *testing.T) {
	s := mixSpec()
	cfg, err := s.resolve(Params{"njobs": NumValue(5)})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	var names []string
	for _, j := range cfg.jobs {
		names = append(names, j.name)
	}
	want := []string{"ckpt", "train", "meta", "ckpt#2", "train#2"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names = %v, want %v", names, want)
	}
}

// TestJobMixMethodAxis checks the static-vs-adaptive sweep knob: a
// "method" binding overrides every app job's transport method.
func TestJobMixMethodAxis(t *testing.T) {
	s := mixSpec()
	cfg, err := s.resolve(Params{"method": StrValue("ADAPTIVE")})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	for _, j := range cfg.jobs {
		if j.kind == JobKindApp && j.transport.Method != "ADAPTIVE" {
			t.Errorf("job %s method = %q, want ADAPTIVE", j.name, j.transport.Method)
		}
	}
}

func TestJobMixValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Scenario)
		want string
	}{
		{"no jobs", func(s *Scenario) { s.Jobs = nil; s.Workload.Kind = KindJobMix }, "jobs array"},
		{"jobs on single-workload kind", func(s *Scenario) { s.Workload = Workload{Kind: KindIOR, Writers: 2, SizeMB: 1} }, "jobs array"},
		{"duplicate names", func(s *Scenario) { s.Jobs[1].Name = "ckpt" }, "duplicate job name"},
		{"unknown job kind", func(s *Scenario) { s.Jobs[0].Kind = "spark" }, "unknown job kind"},
		{"no procs", func(s *Scenario) { s.Jobs[2].Procs = 0 }, "positive process count"},
		{"app without generator", func(s *Scenario) { s.Jobs[0].Generator = "" }, "needs a generator"},
		{"unknown generator", func(s *Scenario) { s.Jobs[0].Generator = "hpl" }, "unknown generator"},
		{"negative timing", func(s *Scenario) { s.Jobs[1].StartSeconds = -1 }, "negative phase timing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mixSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestMDTestFileNameMatchesSprintf pins the metadata-storm name builder to
// the format it replaces, byte for byte, over a grid that includes zero
// and values at and past each field's pad width.
func TestMDTestFileNameMatchesSprintf(t *testing.T) {
	jobs := []string{"", "meta", "jobmix-frontier.mdtest-07", strings.Repeat("j", 70)}
	ranks := []int{0, 7, 99999, 100000, 123456}
	phs := []int{0, 5, 999, 1000, 1234}
	fis := []int{0, 42, 9999, 10000, 12345}
	for _, job := range jobs {
		for _, rank := range ranks {
			for _, ph := range phs {
				for _, fi := range fis {
					want := fmt.Sprintf("%s.r%05d.ph%03d.f%04d", job, rank, ph, fi)
					if got := mdtestFileName(job, rank, ph, fi); got != want {
						t.Fatalf("mdtestFileName(%q, %d, %d, %d) = %q, want %q", job, rank, ph, fi, got, want)
					}
				}
			}
		}
	}
}

// TestPairedIORRecordsTwoJobs runs a noisy XTP-with-interference replica on
// a world the test owns. Both IOR instances are registered jobs, A then B,
// and the file system attributes writers × bytes to each. The sample is job
// A's own IOR result, bit for bit, against a reference that launches the
// two instances by hand: A at t=0, B at the start drawn from the replica's
// "xtp-phase" stream.
func TestPairedIORRecordsTwoJobs(t *testing.T) {
	const seed, writers, bytes, osts = 7, 32, 64 * pfs.MB, 8
	world := func() *cluster.Cluster {
		c, err := cluster.Preset("xtp", cluster.Config{Seed: seed, NumOSTs: osts, ProductionNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := world()
	defer c.Shutdown()
	got, err := RunOn(c, Scenario{
		Name: "paired-jobs", Machine: "xtp", NumOSTs: osts, Samples: 1,
		Workload: Workload{Kind: KindPairedIOR, Writers: writers, Bytes: bytes, WithInterference: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := c.FileSystem()
	if n := fs.JobCount(); n != 2 {
		t.Fatalf("replica registered %d jobs, want 2", n)
	}
	for i, name := range []string{"A", "B"} {
		id := i + 1
		if got := fs.JobName(id); got != name {
			t.Errorf("job %d is %q, want %q", id, got, name)
		}
		if acct := fs.JobIO(id); acct.BytesWritten != writers*bytes || acct.MetaOps == 0 {
			t.Errorf("job %s wrote %v bytes in %d metadata ops, want %v bytes", name, acct.BytesWritten, acct.MetaOps, writers*bytes)
		}
	}

	ref := world()
	defer ref.Shutdown()
	rfs, k := ref.FileSystem(), ref.Kernel()
	cfgA := ior.Config{Writers: writers, BytesPerWriter: bytes, Job: rfs.RegisterJob("A")}
	cfgB := cfgA
	cfgB.Job = rfs.RegisterJob("B")
	runA, err := ior.Launch(rfs, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	estimate := float64(writers) * bytes / (float64(osts) * rfs.Cfg.DiskBW * 0.8)
	k.AfterSeconds(rngx.NewNamed(seed, "xtp-phase").Uniform(0, estimate), func() {
		if _, err := ior.Launch(rfs, cfgB); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if err := k.Stuck(); err != nil {
		t.Fatalf("reference runs did not complete: %v", err)
	}
	res := runA.Result()
	want := Sample{
		Elapsed:       res.Elapsed,
		TotalBytes:    res.TotalBytes,
		AggregateBW:   res.AggregateBW,
		WriterTimes:   res.WriterTimes,
		PerWriterBW:   res.PerWriterBW,
		FailedWriters: res.FailedWriters,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paired-IOR sample is not job A's:\n got %+v\nwant %+v", got, want)
	}
}
