package experiments

import (
	"reflect"
	"testing"

	"repro/adios"
	"repro/internal/workloads"
)

// The parallel campaign runner's determinism contract: a campaign's results
// are a pure function of (master seed, replica keys), so running the same
// grid on 1 worker and on N workers must produce bit-identical sample maps.
// These tests are the regression gate for that contract on the two heaviest
// drivers (the Section IV evaluation grid and the Table I hourly series).

func fig5DeterminismOpts(parallel int) EvalOptions {
	return EvalOptions{
		ProcCounts:   []int{32, 64},
		Samples:      3,
		MPIOSTs:      4,
		AdaptiveOSTs: 16,
		NumOSTs:      16,
		Seed:         11,
		Parallel:     parallel,
	}
}

func TestFig5ParallelBitIdentical(t *testing.T) {
	gen := workloads.Pixie3DGen(workloads.Pixie3DSmall)
	seq, err := EvaluateWorkload(gen, "determinism", fig5DeterminismOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvaluateWorkload(gen, "determinism", fig5DeterminismOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.BWSamples, par.BWSamples) {
		t.Errorf("BW samples diverged between 1 and 8 workers:\nseq: %v\npar: %v",
			seq.BWSamples, par.BWSamples)
	}
	if !reflect.DeepEqual(seq.ElapsedSamples, par.ElapsedSamples) {
		t.Error("elapsed samples diverged between 1 and 8 workers")
	}
	if !reflect.DeepEqual(seq.AdaptiveCounts, par.AdaptiveCounts) {
		t.Error("adaptive counts diverged between 1 and 8 workers")
	}
	if seq.Figure.Render() != par.Figure.Render() {
		t.Error("rendered figures diverged between 1 and 8 workers")
	}
}

func TestTableIParallelBitIdentical(t *testing.T) {
	opts := func(parallel int) TableIOptions {
		return TableIOptions{
			JaguarSamples:   10,
			FranklinSamples: 10,
			XTPSamples:      6,
			ScaleOSTs:       16,
			Seed:            13,
			Parallel:        parallel,
		}
	}
	seq, err := TableI(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := TableI(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Series, par.Series) {
		t.Errorf("Table I series diverged between 1 and 8 workers:\nseq: %+v\npar: %+v",
			seq.Series, par.Series)
	}
	if seq.Table.Render() != par.Table.Render() {
		t.Error("rendered tables diverged between 1 and 8 workers")
	}
}

func TestFig1ParallelBitIdentical(t *testing.T) {
	opts := func(parallel int) Fig1Options {
		return Fig1Options{
			OSTs:     4,
			Ratios:   []int{1, 4},
			SizesMB:  []float64{8, 128},
			Samples:  3,
			Seed:     17,
			Parallel: parallel,
		}
	}
	seq, err := Fig1(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig1(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Samples, par.Samples) {
		t.Errorf("Fig1 samples diverged between 1 and 8 workers:\nseq: %v\npar: %v",
			seq.Samples, par.Samples)
	}
	if seq.Aggregate.Render() != par.Aggregate.Render() ||
		seq.PerWriter.Render() != par.PerWriter.Render() {
		t.Error("rendered figures diverged between 1 and 8 workers")
	}
}

// TestEngineBitIdenticalCombinedEscapeHatches pins the REPRO_NO_REUSE escape
// hatch (fresh worlds per replica) to the default pooled path at the driver
// level, with a failure script armed so the health lifecycle holds across
// world reuse, and under the parallel runner so pooled worlds are shared by
// workers.
func TestEngineBitIdenticalCombinedEscapeHatches(t *testing.T) {
	run := func(noReuse bool) (*Fig1Result, *FailureSweepResult) {
		t.Helper()
		if noReuse {
			t.Setenv("REPRO_NO_REUSE", "1")
		} else {
			t.Setenv("REPRO_NO_REUSE", "")
		}
		f1, err := Fig1(Fig1Options{OSTs: 4, Ratios: []int{1, 4}, SizesMB: []float64{8}, Samples: 2, Seed: 23, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := FailureSweep(FailureSweepOptions{Procs: 16, Samples: 2, NumOSTs: 8, Seed: 23, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		return f1, fs
	}
	wantF1, wantFS := run(false)
	gotF1, gotFS := run(true)
	if !reflect.DeepEqual(gotF1.Samples, wantF1.Samples) {
		t.Errorf("no-reuse: Fig1 samples diverged from the default path:\n got %v\nwant %v",
			gotF1.Samples, wantF1.Samples)
	}
	if !reflect.DeepEqual(gotFS.Cases, wantFS.Cases) {
		t.Errorf("no-reuse: failure-sweep cases diverged from the default path:\n got %+v\nwant %+v",
			gotFS.Cases, wantFS.Cases)
	}
}

// TestRunCampaignsOrderAndDeterminism covers the batch API: results come
// back in input order and match one-at-a-time execution exactly.
func TestRunCampaignsOrderAndDeterminism(t *testing.T) {
	gen := workloads.XGC1Gen()
	var batch []CampaignOptions
	for i := 0; i < 6; i++ {
		batch = append(batch, CampaignOptions{
			Writers: 16,
			Method:  adios.MethodAdaptive,
			Seed:    int64(100 + i),
			PerRank: gen.PerRank,
			NumOSTs: 8,
		})
	}
	par, err := RunCampaigns(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range batch {
		single, err := RunCampaign(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, par[i]) {
			t.Errorf("campaign %d diverged from sequential execution", i)
		}
	}
}
