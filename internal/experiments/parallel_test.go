package experiments

import (
	"reflect"
	"testing"
)

// The parallel campaign runner's determinism contract: a campaign's results
// are a pure function of (master seed, replica keys), so running the same
// grid on 1 worker and on N workers must produce bit-identical sample maps.
// These tests are the regression gate for that contract on the heaviest
// specs (the Section IV evaluation grid, the Table I hourly series and the
// Figure 1 grid), checked after each one's demux.

func TestFig5ParallelBitIdentical(t *testing.T) {
	spec := quick(t, "fig5-small", "procs=32,64", "samples=3", "osts=16")
	spec.Axes[0] = methodAxis(4, 16)
	seq := runDemux(t, spec, 11, 1, evalDemuxTitled("determinism"))
	par := runDemux(t, spec, 11, 8, evalDemuxTitled("determinism"))
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
	spec := tableISamples(tableI(16), 10, 10, 6)
	seq := runDemux(t, spec, 13, 1, tableIDemux)
	par := runDemux(t, spec, 13, 8, tableIDemux)
	if !reflect.DeepEqual(seq.Series, par.Series) {
		t.Errorf("Table I series diverged between 1 and 8 workers:\nseq: %+v\npar: %+v",
			seq.Series, par.Series)
	}
	if seq.Table.Render() != par.Table.Render() {
		t.Error("rendered tables diverged between 1 and 8 workers")
	}
}

func TestFig1ParallelBitIdentical(t *testing.T) {
	spec := quick(t, "fig1", "osts=4", "ratio=1,4", "size=8,128", "samples=3")
	seq := runDemux(t, spec, 17, 1, fig1Demux)
	par := runDemux(t, spec, 17, 8, fig1Demux)
	if !reflect.DeepEqual(seq.Samples, par.Samples) {
		t.Errorf("Fig1 samples diverged between 1 and 8 workers:\nseq: %v\npar: %v",
			seq.Samples, par.Samples)
	}
	if seq.Aggregate.Render() != par.Aggregate.Render() ||
		seq.PerWriter.Render() != par.PerWriter.Render() {
		t.Error("rendered figures diverged between 1 and 8 workers")
	}
}
