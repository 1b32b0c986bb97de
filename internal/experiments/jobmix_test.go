package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/adios"
	"repro/internal/scenario"
)

// tinyJobMixSeed seeds every tinyJobMix run.
const tinyJobMixSeed = 11

// tinyJobMix is the frontier study at smoke scale: the default template
// list with shrunken jobs, three concurrency levels, two samples.
func tinyJobMix(t testing.TB) scenario.Scenario {
	s := quick(t, "jobmix-frontier", "njobs=1,2,3", "samples=2", "osts=8")
	s.Axes[0] = methodAxis(4, 8)
	s.Jobs = []scenario.JobSpec{
		{Name: "ckpt", Kind: scenario.JobKindApp, Generator: "pixie3d-small",
			Procs: 4, Phases: 2, PeriodSeconds: 2},
		{Name: "train", Kind: scenario.JobKindMLRead, Procs: 4, SizeMB: 2,
			Phases: 2, PeriodSeconds: 1, StartSeconds: 1},
		{Name: "meta", Kind: scenario.JobKindMDTest, Procs: 2, FilesPerRank: 4,
			Phases: 2, PeriodSeconds: 1},
	}
	return s
}

// TestJobMixFrontier runs the saturation-frontier scenario end to end and
// checks the demux: a case per (method, njobs) in sweep order, per-job
// stats in launch order, and efficiencies anchored at 1.0 for each
// method's least-contended point.
func TestJobMixFrontier(t *testing.T) {
	r := runDemux(t, tinyJobMix(t), tinyJobMixSeed, 0, jobMixDemux)
	if len(r.Cases) != 6 { // 2 methods x njobs 1..3
		t.Fatalf("cases = %d, want 6", len(r.Cases))
	}
	for i, c := range r.Cases {
		wantMethod := adios.MethodMPI
		if i >= 3 {
			wantMethod = adios.MethodAdaptive
		}
		if c.Method != wantMethod || c.NJobs != i%3+1 {
			t.Fatalf("case %d is (%s, %d); want (%s, %d)", i, c.Method, c.NJobs, wantMethod, i%3+1)
		}
		if len(c.Jobs) != c.NJobs {
			t.Errorf("case %d has %d job stats, want %d", i, len(c.Jobs), c.NJobs)
		}
		if len(c.AggBW) != 2 {
			t.Errorf("case %d has %d samples, want 2", i, len(c.AggBW))
		}
		if c.NJobs == 1 && c.Efficiency != 1 {
			t.Errorf("case %d: 1-job efficiency = %g, want 1 (its own reference)", i, c.Efficiency)
		}
		if c.Efficiency <= 0 {
			t.Errorf("case %d: efficiency = %g, want > 0", i, c.Efficiency)
		}
		for _, j := range c.Jobs {
			if j.Efficiency <= 0 {
				t.Errorf("case %d job %s: per-job efficiency = %g, want > 0", i, j.Name, j.Efficiency)
			}
		}
	}
	if len(r.Figure.Series) != 2 {
		t.Errorf("figure has %d series, want one per method", len(r.Figure.Series))
	}
	tbl := JobMixTable(r)
	if len(tbl.Rows) != 6 {
		t.Errorf("table has %d rows, want 6", len(tbl.Rows))
	}
	line := JobMixLine(r)
	if !strings.Contains(line, "MPI") || !strings.Contains(line, "ADAPTIVE") || !strings.Contains(line, "3 jobs") {
		t.Errorf("summary line %q missing method/depth", line)
	}
}

// TestJobMixFrontierParallelIdentical pins the frontier campaign's
// determinism after the demux: 1 worker and 8 workers produce the same
// cases bit for bit.
func TestJobMixFrontierParallelIdentical(t *testing.T) {
	seq := runDemux(t, tinyJobMix(t), tinyJobMixSeed, 1, jobMixDemux)
	par := runDemux(t, tinyJobMix(t), tinyJobMixSeed, 8, jobMixDemux)
	if !reflect.DeepEqual(seq.Cases, par.Cases) {
		t.Fatalf("frontier diverged across worker counts:\n seq %+v\n par %+v", seq.Cases, par.Cases)
	}
}

// TestJobMixRegistered checks the CLI surface: the frontier is a
// registered scenario whose quick preset compiles and validates.
func TestJobMixRegistered(t *testing.T) {
	def, ok := scenario.Lookup("jobmix-frontier")
	if !ok {
		t.Fatal("jobmix-frontier not registered")
	}
	spec, err := def.Spec("quick")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("quick preset invalid: %v", err)
	}
	if len(spec.Jobs) < 3 {
		t.Fatalf("quick preset declares %d job templates, want >= 3 heterogeneous jobs", len(spec.Jobs))
	}
}

// TestRegisteredModes checks every registered definition's mode surface:
// the spec validates at quick and at full, any other mode errors, and each
// load returns fresh slices and maps, so one caller's edits to its spec
// cannot leak into the next load.
func TestRegisteredModes(t *testing.T) {
	for _, name := range scenario.Names() {
		if _, _, err := scenario.Load(name, "warp"); err == nil {
			t.Errorf("%s: unknown mode must error", name)
		}
		for _, mode := range []string{"quick", "full"} {
			s, _, err := scenario.Load(name, mode)
			if err != nil {
				t.Fatalf("%s@%s: %v", name, mode, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s@%s: %v", name, mode, err)
			}
			want, _ := s.JSON()
			for i := range s.Axes {
				for j := range s.Axes[i].Values {
					v := &s.Axes[i].Values[j]
					v.Samples = -1
					clear(v.With)
				}
			}
			for i := range s.Jobs {
				s.Jobs[i].Procs = -1
			}
			again, _, _ := scenario.Load(name, mode)
			if got, _ := again.JSON(); string(got) != string(want) {
				t.Errorf("%s@%s: editing one loaded spec changed the next load", name, mode)
			}
		}
	}
}

// TestJobMixFairness pins the fairness demux: slowdowns are pooled per
// (job, sample) against each template's least-contended reference, the
// quantiles are ordered, and a single uncontended job whose reference is
// its own mean sits at a slowdown of ~1.
func TestJobMixFairness(t *testing.T) {
	r := runDemux(t, tinyJobMix(t), tinyJobMixSeed, 0, jobMixDemux)
	for i, c := range r.Cases {
		f := c.Fairness
		if !(f.P50 > 0 && f.P95 > 0 && f.Max > 0) {
			t.Fatalf("case %d: fairness not populated: %+v", i, f)
		}
		if f.P50 > f.P95 || f.P95 > f.Max {
			t.Errorf("case %d: quantiles out of order: %+v", i, f)
		}
		if c.NJobs == 1 {
			// The single job's reference is its own cross-sample mean, so
			// per-sample slowdowns straddle 1: the pool's median must be
			// near 1 and its extremes within sample noise of it.
			if f.P50 < 0.5 || f.P50 > 2 {
				t.Errorf("case %d: 1-job median slowdown = %g, want ~1", i, f.P50)
			}
			if f.Max < 1-1e-9 {
				t.Errorf("case %d: 1-job max slowdown = %g, want >= 1 (mean reference)", i, f.Max)
			}
		}
	}
	tbl := JobMixTable(r)
	if len(tbl.Header) != 7 {
		t.Fatalf("table header = %v, want 7 columns including slowdown", tbl.Header)
	}
	if !strings.Contains(tbl.Header[5], "Slowdown") {
		t.Errorf("header %v missing slowdown column", tbl.Header)
	}
}

// TestValidateBuildsNoNames guards set-up time: Validate resolves every grid
// point, and a user waits for it before the campaign starts, so no
// per-point name table may be built there (scenario builds them in Run).
// Validate's allocations for jobmix-frontier must not grow with the mdtest
// job's files per rank: at 6400 a name table adds over 250,000 per point.
// The 10% margin is for the race detector, whose fmt printer pool drops a
// share of its puts; a normal build allocates the same count at both.
func TestValidateBuildsNoNames(t *testing.T) {
	allocs := func(files int) float64 {
		s := jobMix(false)
		found := false
		for i := range s.Jobs {
			if s.Jobs[i].Kind == scenario.JobKindMDTest {
				s.Jobs[i].FilesPerRank = files
				found = true
			}
		}
		if !found {
			t.Fatal("jobmix-frontier has no mdtest job")
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(64), allocs(6400)
	t.Logf("Validate: %v allocs at 64 files per rank, %v at 6400", lo, hi)
	if hi > lo+lo/10 {
		t.Fatalf("Validate allocates %v times at 64 files per rank and %v at 6400; a name table is built in resolve", lo, hi)
	}
}
