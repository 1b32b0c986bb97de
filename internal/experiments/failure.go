package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// failureSweep is the failure-masking study: a Pixie3D checkpoint
// campaign run with and without a scripted OST crash/rebuild episode, under
// the adaptive method and its work-shifting ablation. The question is the
// paper's variability argument pushed to its limit — when a storage target
// does not merely slow down but dies, how much of the outage can adaptive
// writer placement absorb? The failure script is declared once in the
// spec's interference block: OST 0 crashes at 0.01 s, stays dead for
// 0.5 s (requests against it hang 0.2 s, then fail with ErrTargetDown) and
// rebuilds for 2 s at a 0.5 bandwidth tax. The boolean "failures" axis arms
// it per grid point, so the failure-free points exercise the exact
// zero-value path every other scenario runs. Full mode runs 512 ranks on
// the evaluation grid's 1/8-scale Jaguar (84 targets), 5 samples; quick
// mode 64 ranks on 16 targets, 3 samples.
func failureSweep(quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        "failure-sweep",
		Description: "Failure masking: scripted OST crash/rebuild under adaptive IO vs its work-shifting ablation",
		Machine:     "jaguar",
		NumOSTs:     84,
		NoNoise:     true,
		Samples:     5,
		Workload: scenario.Workload{
			Kind:      scenario.KindApp,
			Generator: "pixie3d-small",
			Procs:     512,
		},
		Transport: scenario.Transport{Method: "ADAPTIVE", OSTs: 84},
		Interference: scenario.Interference{
			Failures: scenario.FailuresSpec{
				DeadTimeoutSeconds: 0.2,
				Episodes: []scenario.FailureEpisodeSpec{{
					OST:            0,
					AtSeconds:      0.01,
					DeadSeconds:    0.5,
					RebuildSeconds: 2,
					RebuildTax:     0.5,
				}},
			},
		},
		Axes: []scenario.Axis{
			{Name: "adapt", Values: []scenario.Value{
				scenario.BoolValue(true), scenario.BoolValue(false),
			}},
			{Name: "failures", Values: []scenario.Value{
				scenario.BoolValue(false), scenario.BoolValue(true),
			}},
		},
	}
	if quick {
		s.Workload.Procs, s.Samples = 64, 3
		s.NumOSTs, s.Transport.OSTs = 16, 16
	}
	return s
}

// FailureCase is one (adapt, failures) grid point.
type FailureCase struct {
	Adapt    bool
	Failures bool
	// Elapsed / AggBW are the per-sample campaign times (s) and aggregate
	// bandwidths (GB/s).
	Elapsed []float64
	AggBW   []float64
	// WriteFailures are the per-sample counts of client writes abandoned
	// with ErrTargetDown.
	WriteFailures []int
	// AdaptiveWrites are the per-sample redirected-write counts.
	AdaptiveWrites []int
}

// FailureSweepResult is the full grid plus the masking summary.
type FailureSweepResult struct {
	Cases []FailureCase
	// Amplification[adapt] = mean elapsed with failures over mean elapsed
	// without, per method variant: 1.0 means the outage was fully masked.
	Amplification map[bool]float64
	Figure        metrics.Figure
}

// failureSweepDemux rebuilds the grid from a scenario run by point label.
func failureSweepDemux(run *scenario.Result) (*FailureSweepResult, error) {
	res := &FailureSweepResult{
		Amplification: map[bool]float64{},
		Figure:        metrics.Figure{Title: "Failure masking: campaign time with vs without a scripted OST outage", YUnit: "seconds"},
	}
	variant := func(adapt bool) string {
		if adapt {
			return "adaptive"
		}
		return "ablation"
	}
	for _, adapt := range []bool{true, false} {
		series := metrics.Series{Name: variant(adapt)}
		clean := 0.0
		for _, failures := range []bool{false, true} {
			label := fmt.Sprintf("adapt=%t/failures=%t", adapt, failures)
			pt := run.Point(label)
			if pt == nil {
				return nil, fmt.Errorf("failure-sweep: grid point %q missing from run", label)
			}
			c := FailureCase{Adapt: adapt, Failures: failures}
			for _, s := range pt.Samples {
				c.Elapsed = append(c.Elapsed, s.Elapsed)
				c.AggBW = append(c.AggBW, s.AggregateBW/pfs.GB)
				c.WriteFailures = append(c.WriteFailures, s.WriteFailures)
				c.AdaptiveWrites = append(c.AdaptiveWrites, s.AdaptiveWrites)
			}
			mean := stats.Summarize(c.Elapsed).Mean
			if !failures {
				clean = mean
			} else if clean > 0 {
				res.Amplification[adapt] = mean / clean
			}
			series.Add(fmt.Sprintf("failures=%t", failures), c.Elapsed)
			res.Cases = append(res.Cases, c)
		}
		res.Figure.AddSeries(series)
	}
	return res, nil
}

// FailureSweepTable renders the grid: one row per (variant, failures) with
// elapsed time, bandwidth, and the failure-path counters.
func FailureSweepTable(r *FailureSweepResult) metrics.Table {
	t := metrics.Table{
		Title:  "Failure masking (scripted OST crash/rebuild, adaptive vs ablation)",
		Header: []string{"Variant", "Failures", "Elapsed (s)", "Agg BW (GB/s)", "Failed writes", "Redirected"},
	}
	for _, c := range r.Cases {
		variant := "ablation"
		if c.Adapt {
			variant = "adaptive"
		}
		t.AddRow(variant, fmt.Sprintf("%t", c.Failures),
			fmt.Sprintf("%.2f", stats.Summarize(c.Elapsed).Mean),
			fmt.Sprintf("%.2f", stats.Summarize(c.AggBW).Mean),
			fmt.Sprintf("%.1f", meanOfInts(c.WriteFailures)),
			fmt.Sprintf("%.1f", meanOfInts(c.AdaptiveWrites)))
	}
	return t
}

// FailureSweepLine condenses the study into one line: each variant's outage
// amplification factor (mean elapsed with failures / without).
func FailureSweepLine(r *FailureSweepResult) string {
	var parts []string
	for _, adapt := range []bool{true, false} {
		variant := "ablation"
		if adapt {
			variant = "adaptive"
		}
		parts = append(parts, fmt.Sprintf("%s %.2fx", variant, r.Amplification[adapt]))
	}
	return "failure-sweep outage amplification: " + strings.Join(parts, ", ")
}

// meanOfInts averages an int sample set.
func meanOfInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
