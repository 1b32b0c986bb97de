package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/adios"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// secondsToDuration converts float seconds to a time.Duration.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// CaseKey identifies one evaluation configuration.
type CaseKey struct {
	Method adios.Method
	// Condition is scenario.ConditionBase or scenario.ConditionInterference.
	Condition string
	Procs     int
}

// EvalResult carries one workload's full evaluation: the bandwidth figure
// (Figure 5 panel or Figure 6) and the per-case elapsed-time samples that
// Figure 7 reduces to standard deviations.
type EvalResult struct {
	Workload string
	Figure   metrics.Figure
	// ElapsedSamples[key] are the per-sample total write times (seconds).
	ElapsedSamples map[CaseKey][]float64
	// BWSamples[key] are the per-sample aggregate bandwidths (GB/s).
	BWSamples map[CaseKey][]float64
	// AdaptiveCounts[key] are redirected-write counts (adaptive cases).
	AdaptiveCounts map[CaseKey][]int
}

// evalPrefix starts the name of every evaluation scenario.
const evalPrefix = "eval/"

// eval is one workload's Section IV evaluation (Figures 5, 6 and 7): the
// app workload on full Jaguar over a method × condition × procs grid at
// 5 samples per point (the paper: "at least five"), process counts 512 to
// 16384. Each method value carries its own target count: MPI-IO gets 160,
// the Lustre 1.6 single-file maximum, and adaptive IO 512 ("chosen to
// simplify the discussion of ratios"; 672 was also tested with no
// penalty). The conditions are the paper's normal system conditions and
// the artificial interference program. Quick mode runs at 1/8 scale: 84
// of 672 targets, 20 vs 64 transport targets (the 160:512 ratio), 64 to
// 1024 processes, 3 samples. Seed label "eval/<workload>" and the
// "METHOD/cond/procs=N" point labels reproduce the pre-scenario replica
// streams exactly.
func eval(generator string, quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        evalPrefix + generator,
		Description: fmt.Sprintf("Section IV evaluation: %s under MPI-IO vs adaptive IO", generator),
		Machine:     "jaguar",
		Samples:     5,
		Workload:    scenario.Workload{Kind: scenario.KindApp, Generator: generator},
		Axes: []scenario.Axis{
			methodAxis(160, 512),
			{Name: "condition", LabelFmt: "%s", Values: []scenario.Value{
				scenario.StrValue(scenario.ConditionBase), scenario.StrValue(scenario.ConditionInterference),
			}},
			{Name: "procs", LabelFmt: "procs=%d", Values: nums(512, 1024, 2048, 4096, 8192, 16384)},
		},
	}
	if quick {
		s.NumOSTs, s.Samples = 84, 3
		s.Axes[0] = methodAxis(20, 64)
		s.Axes[2].Values = nums(64, 128, 256, 512, 1024)
	}
	return s
}

// methodAxis is the static MPI-IO vs adaptive axis; each method value
// binds its own transport target count.
func methodAxis(mpiOSTs, adaptiveOSTs int) scenario.Axis {
	method := func(m adios.Method, osts int) scenario.Value {
		v := scenario.StrValue(string(m))
		v.With = map[string]scenario.Value{"transport_osts": scenario.NumValue(float64(osts))}
		return v
	}
	return scenario.Axis{Name: "method", LabelFmt: "%s", Values: []scenario.Value{
		method(adios.MethodMPI, mpiOSTs),
		method(adios.MethodAdaptive, adaptiveOSTs),
	}}
}

// evalDemux rebuilds an EvalResult from a scenario run, deriving the grid
// from the spec's axes by name. Series emit in the canonical figure order —
// condition-outer, method, procs — which differs from the spec's point
// enumeration (method-outer) and is why the demux looks points up by label
// rather than iterating positionally.
func evalDemux(run *scenario.Result, title string) (*EvalResult, error) {
	res := &EvalResult{
		Workload:       run.Scenario.Workload.Generator,
		Figure:         metrics.Figure{Title: title, YUnit: "GB/s"},
		ElapsedSamples: map[CaseKey][]float64{},
		BWSamples:      map[CaseKey][]float64{},
		AdaptiveCounts: map[CaseKey][]int{},
	}
	axes := map[string][]scenario.Value{}
	for _, ax := range run.Scenario.Axes {
		axes[ax.Name] = ax.Values
	}
	for _, cond := range axes["condition"] {
		for _, method := range axes["method"] {
			series := metrics.Series{Name: fmt.Sprintf("%s-%s", method.String(), cond.String())}
			for _, pv := range axes["procs"] {
				procs := int(pv.Float())
				label := fmt.Sprintf("%s/%s/procs=%d", method.String(), cond.String(), procs)
				pt := run.Point(label)
				if pt == nil {
					return nil, fmt.Errorf("evaluate %s: grid point %q missing from run", res.Workload, label)
				}
				key := CaseKey{Method: adios.Method(method.String()), Condition: cond.String(), Procs: procs}
				var bws []float64
				for _, r := range pt.Samples {
					bwGB := r.AggregateBW / pfs.GB
					bws = append(bws, bwGB)
					res.ElapsedSamples[key] = append(res.ElapsedSamples[key], r.Elapsed)
					res.BWSamples[key] = append(res.BWSamples[key], bwGB)
					res.AdaptiveCounts[key] = append(res.AdaptiveCounts[key], r.AdaptiveWrites)
				}
				series.Add(fmt.Sprintf("%d", procs), bws)
			}
			res.Figure.AddSeries(series)
		}
	}
	return res, nil
}

// Fig7 reduces evaluation results to the paper's Figure 7: the standard
// deviation of total write time per case, one panel per workload, one
// series per method+condition, x = process count.
func Fig7(results []*EvalResult) []metrics.Figure {
	var out []metrics.Figure
	panel := 'a'
	for _, er := range results {
		fig := metrics.Figure{
			Title: fmt.Sprintf("Figure 7(%c): Std Deviation of Write Time — %s", panel, er.Workload),
			YUnit: "seconds (stddev)",
		}
		panel++
		type sk struct {
			method adios.Method
			cond   string
		}
		seriesFor := map[sk]*metrics.Series{}
		var order []sk
		// Collect (method, condition) combos and proc counts in stable order.
		procsSeen := map[int]bool{}
		var procs []int
		for key := range er.ElapsedSamples { //repro:allow nodeterm dedup pass; order and procs are both sorted just below
			k := sk{key.Method, key.Condition}
			if seriesFor[k] == nil {
				seriesFor[k] = &metrics.Series{Name: fmt.Sprintf("%s-%s", k.method, k.cond)}
				order = append(order, k)
			}
			if !procsSeen[key.Procs] {
				procsSeen[key.Procs] = true
				procs = append(procs, key.Procs)
			}
		}
		sort.Ints(procs)
		sort.Slice(order, func(i, j int) bool {
			a := string(order[i].method) + "|" + string(order[i].cond)
			b := string(order[j].method) + "|" + string(order[j].cond)
			return a < b
		})
		for _, k := range order {
			s := seriesFor[k]
			for _, p := range procs {
				samples := er.ElapsedSamples[CaseKey{Method: k.method, Condition: k.cond, Procs: p}]
				if len(samples) == 0 {
					continue
				}
				s.AddValue(fmt.Sprintf("%d", p), stats.Summarize(samples).StdDev)
			}
			fig.AddSeries(*s)
		}
		out = append(out, fig)
	}
	return out
}

// SpeedupSummary reports, for each (condition, procs), adaptive's mean
// bandwidth improvement over MPI-IO — the numbers the paper quotes in
// prose ("ranging from 2x ... to more than 4.8x").
func SpeedupSummary(er *EvalResult) metrics.Table {
	t := metrics.Table{
		Title:  fmt.Sprintf("Adaptive vs MPI-IO speedup — %s", er.Workload),
		Header: []string{"Condition", "Procs", "MPI (GB/s)", "Adaptive (GB/s)", "Speedup"},
	}
	conds := map[string]bool{}
	procsSeen := map[int]bool{}
	var procs []int
	for key := range er.BWSamples { //repro:allow nodeterm dedup pass; procs is sorted below and conds is only membership-tested
		conds[key.Condition] = true
		if !procsSeen[key.Procs] {
			procsSeen[key.Procs] = true
			procs = append(procs, key.Procs)
		}
	}
	sort.Ints(procs)
	for _, cond := range []string{scenario.ConditionBase, scenario.ConditionInterference} {
		if !conds[cond] {
			continue
		}
		for _, p := range procs {
			mpi := meanOf(er.BWSamples[CaseKey{adios.MethodMPI, cond, p}])
			ada := meanOf(er.BWSamples[CaseKey{adios.MethodAdaptive, cond, p}])
			if mpi == 0 && ada == 0 {
				continue
			}
			t.AddRow(cond, fmt.Sprintf("%d", p),
				fmt.Sprintf("%.2f", mpi), fmt.Sprintf("%.2f", ada),
				fmt.Sprintf("%.2fx", stats.Speedup(ada, mpi)))
		}
	}
	return t
}

// SpeedupLine condenses SpeedupSummary into the one-line range the paper
// quotes in prose — worst and best adaptive-vs-MPI speedups with the
// configurations they occur at.
func SpeedupLine(er *EvalResult) string {
	tbl := SpeedupSummary(er)
	best, worst := "", ""
	var bestV, worstV float64
	for _, row := range tbl.Rows {
		var v float64
		fmt.Sscanf(row[4], "%fx", &v)
		if best == "" || v > bestV {
			best, bestV = row[1]+" procs/"+row[0], v
		}
		if worst == "" || v < worstV {
			worst, worstV = row[1]+" procs/"+row[0], v
		}
	}
	return fmt.Sprintf("%-16s adaptive vs MPI: %.2fx (%s) … %.2fx (%s)",
		er.Workload, worstV, worst, bestV, best)
}
