package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/adios"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Scaled-down grids: per-OST ratios (which drive every effect) are
// preserved while absolute counts shrink for test speed.

// runDemux runs s at seed on parallel workers (<=0 = all cores) and
// reduces the run with demux, failing t on either error.
func runDemux[R any](t testing.TB, s scenario.Scenario, seed int64, parallel int, demux func(*scenario.Result) (R, error)) R {
	t.Helper()
	run, err := scenario.Run(s, scenario.RunOptions{Seed: seed, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	out, err := demux(run)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// quick loads the registered spec name at quick mode and applies each
// -set assignment to it.
func quick(t testing.TB, name string, sets ...string) scenario.Scenario {
	t.Helper()
	s, _, err := scenario.Load(name, "quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		if err := scenario.ApplySet(&s, set); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// fig3DemuxAt is fig3Demux with its headline tests at seed.
func fig3DemuxAt(seed int64) func(*scenario.Result) (*Fig3Result, error) {
	return func(run *scenario.Result) (*Fig3Result, error) { return fig3Demux(run, seed) }
}

// evalDemuxTitled is evalDemux with a fixed figure title.
func evalDemuxTitled(title string) func(*scenario.Result) (*EvalResult, error) {
	return func(run *scenario.Result) (*EvalResult, error) { return evalDemux(run, title) }
}

func TestFig1ShapesHold(t *testing.T) {
	s := quick(t, "fig1", "osts=8", "ratio=1,2,4,16,32", "size=1,128,1024", "samples=2",
		"noise=false") // isolate internal interference
	res := runDemux(t, s, 1, 0, fig1Demux)
	if bad := Fig1ShapeChecks(res); len(bad) > 0 {
		t.Fatalf("Figure 1 shape violations:\n%s", strings.Join(bad, "\n"))
	}
	// Sanity on rendering.
	out := res.Aggregate.Render()
	if !strings.Contains(out, "Figure 1(a)") || !strings.Contains(out, "256") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig1SamplesRecorded(t *testing.T) {
	s := quick(t, "fig1", "osts=4", "ratio=1,4", "size=8", "samples=3", "noise=false")
	res := runDemux(t, s, 0, 0, fig1Demux)
	if got := len(res.Samples["8MB"][4]); got != 3 {
		t.Fatalf("samples recorded = %d, want 3", got)
	}
}

func TestTableIVariabilityBands(t *testing.T) {
	// 1/8 scale: 64 OSTs / 64 writers on Jaguar, etc.
	res := runDemux(t, tableISamples(tableI(8), 25, 25, 15), 3, 0, tableIDemux)
	if len(res.Series) != 4 {
		t.Fatalf("rows = %d", len(res.Series))
	}
	get := func(name string) MachineSeries {
		for _, s := range res.Series {
			if s.Machine == name {
				return s
			}
		}
		t.Fatalf("missing series %s", name)
		return MachineSeries{}
	}
	jag := get("Jaguar")
	fr := get("Franklin")
	with := get("XTP(with Int.)")
	without := get("XTP(without Int.)")

	// Paper: production machines show substantial variability (40–60%);
	// accept a generous 25–80% band at reduced scale.
	for _, s := range []MachineSeries{jag, fr} {
		cov := s.Summary.CoVPercent()
		if cov < 25 || cov > 80 {
			t.Errorf("%s CoV = %.0f%%, want within 25–80%% (paper: 40–60%%)", s.Machine, cov)
		}
	}
	// Paper: two simultaneous jobs on XTP cause variation up to ~43%;
	// a single job on the idle machine is far steadier.
	if with.Summary.CoVPercent() <= without.Summary.CoVPercent() {
		t.Errorf("XTP with interference (%.0f%%) should vary more than without (%.0f%%)",
			with.Summary.CoVPercent(), without.Summary.CoVPercent())
	}
	if without.Summary.CoVPercent() > 20 {
		t.Errorf("XTP without interference CoV = %.0f%%, expected small", without.Summary.CoVPercent())
	}
	// Rendered table carries all four machines.
	out := res.Table.Render()
	for _, m := range []string{"Jaguar", "Franklin", "XTP(with Int.)", "XTP(without Int.)"} {
		if !strings.Contains(out, m) {
			t.Errorf("table missing row %s:\n%s", m, out)
		}
	}
}

func TestFig2HistogramsFromTableI(t *testing.T) {
	res := &TableIResult{Series: []MachineSeries{
		{Machine: "Jaguar", BWSamples: []float64{100, 120, 180, 200, 90}},
		{Machine: "XTP", BWSamples: []float64{50, 52, 51}},
	}}
	figs := Fig2(res)
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	if !strings.Contains(figs[0].Title, "Figure 2(a): Jaguar") ||
		!strings.Contains(figs[1].Title, "Figure 2(b): XTP") {
		t.Fatalf("panel titles wrong: %q / %q", figs[0].Title, figs[1].Title)
	}
	if !strings.Contains(figs[0].Render(), "n=5") {
		t.Fatal("histogram render wrong")
	}
}

func TestFig3ImbalanceCharacteristics(t *testing.T) {
	s := quick(t, "fig3", "osts=24", "samples=12")
	s.Workload.Bytes = 64 * pfs.MB
	res := runDemux(t, s, 5, 0, fig3DemuxAt(5))
	if len(res.Test1Times) != 24 || len(res.Test2Times) != 24 {
		t.Fatalf("profile sizes %d/%d", len(res.Test1Times), len(res.Test2Times))
	}
	if res.Imbalance1 < 1 || res.Imbalance2 < 1 {
		t.Fatal("imbalance factors below 1")
	}
	// Paper: "a significant imbalance ... in all IO tests", average ≈ 2.
	if res.AvgImbalance < 1.2 {
		t.Errorf("average imbalance %.2f too small — interference model too tame", res.AvgImbalance)
	}
	if res.MaxImbalance < res.AvgImbalance {
		t.Error("max imbalance below average")
	}
	// Transience: the two tests 3 minutes apart should generally differ.
	if res.Imbalance1 == res.Imbalance2 {
		t.Log("warning: identical imbalance across the 3-minute gap (possible but unusual)")
	}
}

func TestEvaluateWorkloadAdaptiveWins(t *testing.T) {
	// Scaled-down Figure 5(b) shape: 128 MB/process, writers 8x targets;
	// MPI restricted to a quarter of the targets (stands in for the
	// 160-of-512 limit), adaptive free.
	s := quick(t, "fig5-large", "osts=16", "samples=2", "procs=128")
	s.Axes[0] = methodAxis(4, 16)
	er := runDemux(t, s, 7, 0, evalDemuxTitled("scaled 5(b)"))
	for _, cond := range []string{scenario.ConditionBase, scenario.ConditionInterference} {
		mpi := meanOf(er.BWSamples[CaseKey{adios.MethodMPI, cond, 128}])
		ada := meanOf(er.BWSamples[CaseKey{adios.MethodAdaptive, cond, 128}])
		if ada <= mpi {
			t.Errorf("%s: adaptive %.2f GB/s should beat MPI %.2f GB/s", cond, ada, mpi)
		}
	}
	// Adaptive writes should actually occur under interference.
	counts := er.AdaptiveCounts[CaseKey{adios.MethodAdaptive, scenario.ConditionInterference, 128}]
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Error("no adaptive writes under interference")
	}
	// Speedup table renders.
	tbl := SpeedupSummary(er)
	if !strings.Contains(tbl.Render(), "x") {
		t.Fatal("speedup table empty")
	}
}

// TestFig3ScenarioFollowsOverrides checks that the registered fig3 spec,
// after -set overrides, renders the same figure as the spec edited field
// by field to match, and that the headline tests write with the replicas'
// writer count: one per target, or ratio per target after -set ratio.
func TestFig3ScenarioFollowsOverrides(t *testing.T) {
	const seed = 3
	for _, tc := range []struct {
		sets    []string
		writers int
	}{
		{[]string{"osts=16", "samples=4", "size_mb=8"}, 16},
		{[]string{"osts=16", "samples=4", "size_mb=8", "ratio=2"}, 32},
	} {
		t.Run(strings.Join(tc.sets, ","), func(t *testing.T) {
			s := quick(t, "fig3", tc.sets...)
			run, err := scenario.Run(s, scenario.RunOptions{Seed: seed, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, smp := range run.Points[0].Samples {
				if len(smp.WriterTimes) != tc.writers {
					t.Fatalf("replica wrote with %d writers, want %d", len(smp.WriterTimes), tc.writers)
				}
			}
			got, err := fig3Demux(run, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Test1Times) != tc.writers || len(got.Test2Times) != tc.writers {
				t.Fatalf("headline tests wrote with %d/%d writers, want %d",
					len(got.Test1Times), len(got.Test2Times), tc.writers)
			}
			built := fig3(true)
			built.NumOSTs, built.Samples = 16, 4
			built.Workload.Bytes = 8 * pfs.MB
			built.Workload.WritersPerOST = tc.writers / 16
			want := runDemux(t, built, seed, 2, fig3DemuxAt(seed))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overridden fig3 spec = %+v\nwant the built spec's %+v", got, want)
			}
		})
	}
}

func TestFig7Reduction(t *testing.T) {
	er := &EvalResult{
		Workload: "test",
		ElapsedSamples: map[CaseKey][]float64{
			{adios.MethodMPI, scenario.ConditionBase, 512}:      {10, 14, 12},
			{adios.MethodAdaptive, scenario.ConditionBase, 512}: {10, 10.5, 10.2},
		},
	}
	figs := Fig7([]*EvalResult{er})
	if len(figs) != 1 || len(figs[0].Series) != 2 {
		t.Fatalf("fig7 structure: %+v", figs)
	}
	var mpiStd, adaStd float64
	for _, s := range figs[0].Series {
		switch s.Name {
		case "MPI-base":
			mpiStd = s.Points[0].Value
		case "ADAPTIVE-base":
			adaStd = s.Points[0].Value
		}
	}
	if math.Abs(mpiStd-stats.Summarize([]float64{10, 14, 12}).StdDev) > 1e-12 {
		t.Fatalf("mpi std = %v", mpiStd)
	}
	if adaStd >= mpiStd {
		t.Fatal("reduction lost the ordering")
	}
}

func TestMetadataStudyStaggerHelps(t *testing.T) {
	s := quick(t, "metadata", "samples=3")
	s.Workload.Writers = 64
	s.Axes[0].Values = staggers(0, 10*time.Millisecond)
	res := runDemux(t, s, 9, 0, metadataDemux)
	burstPeaks := res.QueuePeaks[0]
	stagPeaks := res.QueuePeaks[10*time.Millisecond]
	var burst, stag float64
	for i := range burstPeaks {
		burst += float64(burstPeaks[i])
		stag += float64(stagPeaks[i])
	}
	if stag >= burst {
		t.Fatalf("staggering should cut the MDS queue peak: %v vs %v", stag, burst)
	}
	out := res.Table.Render()
	if !strings.Contains(out, "10ms") || !strings.Contains(out, "0s") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}
