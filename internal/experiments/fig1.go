package experiments

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// Fig1Result carries both panels of Figure 1 plus the raw samples.
type Fig1Result struct {
	// Aggregate is Figure 1(a): aggregate write bandwidth (GB/s) vs writer
	// count, one series per data size, min/max bars over samples.
	Aggregate metrics.Figure
	// PerWriter is Figure 1(b): average per-writer bandwidth (MB/s).
	PerWriter metrics.Figure
	// Samples[size][ratio] holds the raw aggregate-bandwidth samples.
	Samples map[string]map[int][]float64
}

// fig1 is the paper's internal-interference IOR grid: 512 OSTs of Jaguar,
// writer:OST ratios 1..32, per-writer sizes 1 MB–1 GB with weak scaling,
// 40 samples per point, each writer on its own file pinned to one target
// via POSIX-IO, on busy production Jaguar (noise supplies the error bars).
// Writer counts are ratio×OSTs, so quick mode's 16 OSTs scale the whole
// grid down while keeping the per-target ratios that drive the effect.
// Seed label "fig1" and the "size=%gMB/ratio=%d" point labels reproduce
// the pre-scenario replica streams exactly.
func fig1(quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        "fig1",
		Description: "Figure 1: internal-interference IOR grid on Jaguar (weak scaling)",
		Machine:     "jaguar",
		NumOSTs:     512,
		Samples:     40,
		Workload:    scenario.Workload{Kind: scenario.KindIOR, PinTargets: true},
		Axes: []scenario.Axis{
			{Name: "size", LabelFmt: "size=%gMB", Values: nums(1, 8, 128, 1024)},
			{Name: "ratio", LabelFmt: "ratio=%d", Values: nums(1, 2, 4, 8, 16, 32)},
		},
	}
	if quick {
		s.NumOSTs, s.Samples = 16, 12
	}
	return s
}

// fig1Demux rebuilds the two figure panels from a scenario run, grouping
// grid points by their size parameter in encounter order.
func fig1Demux(run *scenario.Result) (*Fig1Result, error) {
	res := &Fig1Result{
		Aggregate: metrics.Figure{
			Title: "Figure 1(a): Scaling of Aggregate Write Bandwidth on Jaguar/Lustre",
			YUnit: "GB/s",
		},
		PerWriter: metrics.Figure{
			Title: "Figure 1(b): Scaling of Per-Writer Write Bandwidth on Jaguar/Lustre",
			YUnit: "MB/s",
		},
		Samples: map[string]map[int][]float64{},
	}
	type sizeSeries struct {
		agg, pw metrics.Series
	}
	var order []string
	bySize := map[string]*sizeSeries{}
	for _, pt := range run.Points {
		sizeMB := pt.Params.Float("size", 0)
		ratio := pt.Params.Int("ratio", 0)
		writers := pt.Params.Int("osts", run.Scenario.NumOSTs) * ratio
		sizeName := fmt.Sprintf("%gMB", sizeMB)
		ss := bySize[sizeName]
		if ss == nil {
			ss = &sizeSeries{agg: metrics.Series{Name: sizeName}, pw: metrics.Series{Name: sizeName}}
			bySize[sizeName] = ss
			order = append(order, sizeName)
			res.Samples[sizeName] = map[int][]float64{}
		}
		var aggSamples, pwSamples []float64
		for _, r := range pt.Samples {
			aggSamples = append(aggSamples, r.AggregateBW/pfs.GB)
			pwSamples = append(pwSamples, r.MeanPerWriterBW()/pfs.MB)
		}
		label := fmt.Sprintf("%d", writers)
		ss.agg.Add(label, aggSamples)
		ss.pw.Add(label, pwSamples)
		res.Samples[sizeName][ratio] = aggSamples
	}
	for _, sizeName := range order {
		res.Aggregate.AddSeries(bySize[sizeName].agg)
		res.PerWriter.AddSeries(bySize[sizeName].pw)
	}
	return res, nil
}

// Fig1ShapeChecks verifies the qualitative claims of the paper's Section II
// against a Fig1Result, returning human-readable violations (empty = all
// shapes hold). The checks mirror the text: per-writer bandwidth decreases
// monotonically with writer count; aggregate bandwidth for ≥128 MB sizes
// peaks by 4 writers/OST and declines 16–28% from 16:1 to 32:1 (a tolerance
// band of 10–40% absorbs simulator noise); cache-absorbed 1 MB writes do
// not collapse. The ratio comparisons read each point's raw samples, so
// they apply to whichever ratios the grid swept.
func Fig1ShapeChecks(r *Fig1Result) []string {
	var bad []string
	for si, s := range r.PerWriter.Series {
		// Per-writer bandwidth must never rise with contention, and must
		// show a clear decline over the full sweep. (At the lowest ratios a
		// clean simulator holds per-writer rates exactly flat — the client
		// cap binds before any sharing does — where the paper's production
		// measurements already drift down; tolerate equality there.)
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Value > s.Points[i-1].Value*1.001 {
				bad = append(bad, fmt.Sprintf("per-writer BW increased for %s at %s",
					r.PerWriter.Series[si].Name, s.Points[i].Label))
			}
		}
		if n := len(s.Points); n >= 2 && s.Points[n-1].Value > s.Points[0].Value*0.9 {
			bad = append(bad, fmt.Sprintf("per-writer BW shows no overall decline for %s",
				r.PerWriter.Series[si].Name))
		}
	}
	for _, s := range r.Aggregate.Series {
		if s.Name != "128MB" && s.Name != "1024MB" {
			continue
		}
		// A point's plotted value is the mean of its samples.
		at := func(ratio int) (float64, bool) {
			xs, ok := r.Samples[s.Name][ratio]
			return meanOf(xs), ok
		}
		if v16, ok16 := at(16); ok16 {
			if v32, ok32 := at(32); ok32 {
				drop := (v16 - v32) / v16
				if drop < 0.10 || drop > 0.40 {
					bad = append(bad, fmt.Sprintf("%s 16:1→32:1 decline %.0f%% outside 10–40%%", s.Name, 100*drop))
				}
			}
		}
		if v1, ok1 := at(1); ok1 {
			if v4, ok4 := at(4); ok4 && v4 <= v1 {
				bad = append(bad, fmt.Sprintf("%s aggregate does not rise 1:1→4:1", s.Name))
			}
		}
	}
	for _, s := range r.Aggregate.Series {
		if s.Name != "1MB" || len(s.Points) < 2 {
			continue
		}
		first, last := s.Points[0].Value, s.Points[len(s.Points)-1].Value
		if last < first {
			bad = append(bad, "1MB aggregate collapsed despite cache absorption")
		}
	}
	return bad
}

// meanOf is the mean of a sample set (a figure point's plotted value).
func meanOf(xs []float64) float64 { return stats.Summarize(xs).Mean }
