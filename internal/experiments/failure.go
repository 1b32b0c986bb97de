package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// FailureSweepOptions configures the failure-masking study: a Pixie3D
// checkpoint campaign run with and without a scripted OST crash/rebuild
// episode, under the adaptive method and its work-shifting ablation. The
// question is the paper's variability argument pushed to its limit — when a
// storage target does not merely slow down but dies, how much of the outage
// can adaptive writer placement absorb?
type FailureSweepOptions struct {
	// Procs is the application's process count (default 64).
	Procs int
	// Samples per grid point (default 3).
	Samples int
	// NumOSTs scales the simulated machine (default 16).
	NumOSTs int
	// TransportOSTs restricts the transport (default NumOSTs).
	TransportOSTs int
	// CrashAt / DeadFor / RebuildFor / RebuildTax script the single OST 0
	// episode (defaults 0.01s / 0.5s / 2s / 0.5).
	CrashAt, DeadFor, RebuildFor, RebuildTax float64
	// DeadTimeout is how long a request against the dead target hangs
	// before failing with ErrTargetDown (default 0.2s).
	DeadTimeout float64
}

func (o *FailureSweepOptions) defaults() {
	if o.Procs <= 0 {
		o.Procs = 64
	}
	if o.Samples <= 0 {
		o.Samples = 3
	}
	if o.NumOSTs <= 0 {
		o.NumOSTs = 16
	}
	if o.TransportOSTs <= 0 || o.TransportOSTs > o.NumOSTs {
		o.TransportOSTs = o.NumOSTs
	}
	if o.CrashAt <= 0 {
		o.CrashAt = 0.01
	}
	if o.DeadFor <= 0 {
		o.DeadFor = 0.5
	}
	if o.RebuildFor <= 0 {
		o.RebuildFor = 2
	}
	if o.RebuildTax <= 0 {
		o.RebuildTax = 0.5
	}
	if o.DeadTimeout <= 0 {
		o.DeadTimeout = 0.2
	}
}

// FailureSweepScenario expresses the study declaratively: the adaptive
// checkpoint campaign over an adapt × failures grid. The failure script is
// declared once in the spec's interference block; the boolean "failures"
// axis arms it per grid point, so the failure-free points exercise the
// exact zero-value path every other scenario runs.
func FailureSweepScenario(opt FailureSweepOptions) scenario.Scenario {
	opt.defaults()
	return scenario.Scenario{
		Name:        "failure-sweep",
		Description: "Failure masking: scripted OST crash/rebuild under adaptive IO vs its work-shifting ablation",
		Machine:     "jaguar",
		NumOSTs:     opt.NumOSTs,
		NoNoise:     true,
		Samples:     opt.Samples,
		Workload: scenario.Workload{
			Kind:      scenario.KindApp,
			Generator: "pixie3d-small",
			Procs:     opt.Procs,
		},
		Transport: scenario.Transport{Method: "ADAPTIVE", OSTs: opt.TransportOSTs},
		Interference: scenario.Interference{
			Failures: scenario.FailuresSpec{
				DeadTimeoutSeconds: opt.DeadTimeout,
				Episodes: []scenario.FailureEpisodeSpec{{
					OST:            0,
					AtSeconds:      opt.CrashAt,
					DeadSeconds:    opt.DeadFor,
					RebuildSeconds: opt.RebuildFor,
					RebuildTax:     opt.RebuildTax,
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
