package experiments

import (
	"fmt"
	"strings"

	"repro/adios"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// jobMix is the saturation-frontier study: a heterogeneous job mix
// co-scheduled onto full Jaguar, swept from 1 to 6 concurrent jobs under
// the static MPI-IO transport and the adaptive method, 5 samples per
// point. The method axis carries each transport's target count (the same
// 160-vs-512 asymmetry as the Section IV evaluation) and overrides every
// app job in the mix; the njobs axis cycles the template list. The mix is
// three signatures: a phased Pixie3D checkpoint writer, an ML-training job
// re-reading its dataset shards every epoch, and an mdtest-style metadata
// storm. Periods are short relative to each phase's I/O time, so the mix
// is I/O-bound — the point of the sweep is to saturate the shared file
// system, not the schedule. Quick mode runs the evaluation grid's 1/8-scale
// Jaguar (84 targets, 20 vs 64 per method) to 4 jobs at 3 samples.
func jobMix(quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        "jobmix-frontier",
		Description: "Saturation frontier: heterogeneous job mix on one shared file system, 1→N concurrent jobs",
		Machine:     "jaguar",
		Samples:     5,
		Jobs: []scenario.JobSpec{
			{Name: "ckpt", Kind: scenario.JobKindApp, Generator: "pixie3d-large",
				Procs: 32, Phases: 3, PeriodSeconds: 10},
			{Name: "train", Kind: scenario.JobKindMLRead, Procs: 16, SizeMB: 64,
				Phases: 5, PeriodSeconds: 5, StartSeconds: 2},
			{Name: "meta", Kind: scenario.JobKindMDTest, Procs: 8, FilesPerRank: 64,
				Phases: 5, PeriodSeconds: 2, StartSeconds: 1},
		},
		Axes: []scenario.Axis{
			methodAxis(160, 512),
			{Name: "njobs", LabelFmt: "njobs=%d", Values: nums(1, 2, 3, 4, 5, 6)},
		},
	}
	if quick {
		s.NumOSTs, s.Samples = 84, 3
		s.Axes[0] = methodAxis(20, 64)
		s.Axes[1].Values = nums(1, 2, 3, 4)
	}
	return s
}

// JobStat is one job's cross-sample summary at one frontier point.
type JobStat struct {
	Name   string
	Kind   string
	MeanBW float64 // GB/s over the job's own active span
	// Efficiency is MeanBW relative to the same job template's bandwidth
	// at its first (least-contended) appearance in the sweep.
	Efficiency float64
}

// FairnessStat summarizes the per-job slowdown distribution at one
// frontier point. For every co-scheduled job instance and sample, slowdown
// is the template's least-contended reference bandwidth over the bandwidth
// the job actually delivered: 1.0 means no interference, 2.0 means the job
// ran at half its uncontended rate. The quantiles pool every (job, sample)
// slowdown at the point, so P95 vs P50 separates "everyone degrades a
// little" from "one victim job starves" — the fairness question aggregate
// efficiency cannot answer.
type FairnessStat struct {
	P50 float64
	P95 float64
	Max float64
}

// MixCase is one (method, njobs) frontier point.
type MixCase struct {
	Method adios.Method
	NJobs  int
	// AggBW are the per-sample aggregate bandwidths (GB/s over makespan).
	AggBW []float64
	// Makespan are the per-sample completion times of the slowest job.
	Makespan []float64
	// Jobs summarizes each co-scheduled job, in launch order.
	Jobs []JobStat
	// Efficiency is mean(AggBW) over the ideal aggregate — the sum of
	// every co-scheduled job template's reference (first-appearance)
	// bandwidth. 1.0 means each job still delivers what it did when least
	// contended; decay along the sweep is the saturation frontier.
	Efficiency float64
	// Fairness is the per-job slowdown distribution (see FairnessStat).
	Fairness FairnessStat
}

// JobMixResult is the full frontier: cases in method-outer, njobs order,
// plus the aggregate-bandwidth figure.
type JobMixResult struct {
	Cases  []MixCase
	Figure metrics.Figure
}

// jobMixDemux rebuilds the frontier from a scenario run, deriving the grid
// from the spec's axes by name and looking points up by label.
func jobMixDemux(run *scenario.Result) (*JobMixResult, error) {
	res := &JobMixResult{
		Figure: metrics.Figure{Title: "Saturation frontier: aggregate bandwidth vs concurrent jobs", YUnit: "GB/s"},
	}
	axes := map[string][]scenario.Value{}
	for _, ax := range run.Scenario.Axes {
		axes[ax.Name] = ax.Values
	}
	for _, method := range axes["method"] {
		series := metrics.Series{Name: method.String()}
		// refBW[template] is the template's mean bandwidth at its first
		// (least-contended) appearance in the ascending njobs sweep; the
		// sum over a mix is its ideal aggregate. The sum-of-references
		// ideal is the usual solo-bandwidth approximation — job spans
		// overlap rather than coincide, so treat it as a frontier
		// indicator, not an exact bound.
		refBW := map[string]float64{}
		for _, nv := range axes["njobs"] {
			n := int(nv.Float())
			label := fmt.Sprintf("%s/njobs=%d", method.String(), n)
			pt := run.Point(label)
			if pt == nil {
				return nil, fmt.Errorf("jobmix: grid point %q missing from run", label)
			}
			mc := MixCase{Method: adios.Method(method.String()), NJobs: n}
			jobBW := map[string][]float64{}
			var jobOrder []JobStat
			for _, s := range pt.Samples {
				mc.AggBW = append(mc.AggBW, s.AggregateBW/pfs.GB)
				mc.Makespan = append(mc.Makespan, s.Elapsed)
				for _, j := range s.Jobs {
					if _, seen := jobBW[j.Name]; !seen {
						jobOrder = append(jobOrder, JobStat{Name: j.Name, Kind: j.Kind})
					}
					jobBW[j.Name] = append(jobBW[j.Name], j.BW/pfs.GB)
				}
			}
			var ideal float64
			for i := range jobOrder {
				jobOrder[i].MeanBW = meanOf(jobBW[jobOrder[i].Name])
				tmpl := jobTemplate(jobOrder[i].Name)
				if _, ok := refBW[tmpl]; !ok {
					refBW[tmpl] = jobOrder[i].MeanBW
				}
				if ref := refBW[tmpl]; ref > 0 {
					jobOrder[i].Efficiency = jobOrder[i].MeanBW / ref
				}
				ideal += refBW[tmpl]
			}
			mc.Jobs = jobOrder
			if ideal > 0 {
				mc.Efficiency = meanOf(mc.AggBW) / ideal
			}
			var slowdowns []float64
			for i := range jobOrder {
				ref := refBW[jobTemplate(jobOrder[i].Name)]
				if ref <= 0 {
					continue
				}
				for _, bw := range jobBW[jobOrder[i].Name] {
					if bw > 0 {
						slowdowns = append(slowdowns, ref/bw)
					}
				}
			}
			if len(slowdowns) > 0 {
				mc.Fairness = FairnessStat{
					P50: stats.Percentile(slowdowns, 50),
					P95: stats.Percentile(slowdowns, 95),
					Max: stats.Percentile(slowdowns, 100),
				}
			}
			series.Add(fmt.Sprintf("%d", n), mc.AggBW)
			res.Cases = append(res.Cases, mc)
		}
		res.Figure.AddSeries(series)
	}
	return res, nil
}

// jobTemplate strips the "#k" replication suffix the njobs axis appends,
// recovering the template identity shared by e.g. "ckpt" and "ckpt#2".
func jobTemplate(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// JobMixTable renders the frontier as a table: one row per (method, njobs)
// with aggregate bandwidth, scaling efficiency, and the per-job breakdown.
func JobMixTable(r *JobMixResult) metrics.Table {
	t := metrics.Table{
		Title:  "Saturation frontier (per-method job-count sweep)",
		Header: []string{"Method", "Jobs", "Agg BW (GB/s)", "Makespan (s)", "Efficiency", "Slowdown p50/p95/max", "Per-job GB/s (eff)"},
	}
	for _, c := range r.Cases {
		var jobs []string
		for _, j := range c.Jobs {
			jobs = append(jobs, fmt.Sprintf("%s=%.2f@%.0f%%", j.Name, j.MeanBW, j.Efficiency*100))
		}
		t.AddRow(string(c.Method), fmt.Sprintf("%d", c.NJobs),
			fmt.Sprintf("%.2f", meanOf(c.AggBW)),
			fmt.Sprintf("%.1f", stats.Summarize(c.Makespan).Mean),
			fmt.Sprintf("%.2f", c.Efficiency),
			fmt.Sprintf("%.2f/%.2f/%.2f", c.Fairness.P50, c.Fairness.P95, c.Fairness.Max),
			strings.Join(jobs, " "))
	}
	return t
}

// JobMixLine condenses the frontier into one line: each method's scaling
// efficiency at the deepest point of the sweep.
func JobMixLine(r *JobMixResult) string {
	eff := map[adios.Method]MixCase{}
	var order []adios.Method
	for _, c := range r.Cases {
		if _, seen := eff[c.Method]; !seen {
			order = append(order, c.Method)
		}
		if prev, seen := eff[c.Method]; !seen || c.NJobs > prev.NJobs {
			eff[c.Method] = c
		}
	}
	var parts []string
	for _, m := range order {
		c := eff[m]
		parts = append(parts, fmt.Sprintf("%s %.0f%% at %d jobs", m, c.Efficiency*100, c.NJobs))
	}
	return "jobmix frontier: " + strings.Join(parts, ", ")
}
