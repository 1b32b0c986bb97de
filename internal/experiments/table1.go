package experiments

import (
	"fmt"

	"repro/cluster"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// MachineSeries is one row of Table I plus its raw samples.
type MachineSeries struct {
	Machine string
	// BWSamples are per-test aggregate bandwidths in MB/s.
	BWSamples []float64
	// Imbalances are per-test imbalance factors (slowest/fastest writer).
	Imbalances []float64
	Summary    stats.Summary
}

// TableIResult carries the table and the per-machine sample sets that
// Figures 2 and 3 reuse.
type TableIResult struct {
	Table  metrics.Table
	Series []MachineSeries
}

// tableI is the external-interference variability study (Table I, Figure
// 2) with each machine's target and writer counts divided by scale (1 is
// the paper, quick mode is 8): hourly IOR tests with one writer per
// storage target on Jaguar (469 samples), the NERSC 80-writer series on
// Franklin (~2 years of hourly tests in the paper; 469 samples here too),
// and two controlled XTP configurations, one IOR job vs two simultaneous
// IOR jobs (100 samples each). The paper does not state the hourly tests'
// size; 64 MB per writer gives multi-second transfers that see through
// cache absorption. One "machine" axis carries With bundles switching
// machine preset, target/writer counts, noise and workload kind together —
// Table I's rows are literally four configurations of one spec. Seed label
// "table1" and the row-name point labels reproduce the pre-scenario
// replica streams exactly.
func tableI(scale int) scenario.Scenario {
	osts := 512 / scale
	franklinWriters := max(80/scale, 2)
	xtpWriters, xtpBlades := xtpScale(scale)
	num := func(n int) scenario.Value { return scenario.NumValue(float64(n)) }
	machine := func(preset, label string, samples int, with map[string]scenario.Value) scenario.Value {
		v := scenario.StrValue(preset)
		v.Label = label
		v.Samples = samples
		v.With = with
		return v
	}
	xtpWith := func(withInterference bool) map[string]scenario.Value {
		return map[string]scenario.Value{
			"kind":              scenario.StrValue(scenario.KindPairedIOR),
			"osts":              num(xtpBlades),
			"writers":           num(xtpWriters),
			"noise":             scenario.BoolValue(false),
			"with_interference": scenario.BoolValue(withInterference),
		}
	}
	return scenario.Scenario{
		Name:        "table1",
		Description: "Table I: external-interference variability on Jaguar, Franklin and XTP",
		Samples:     469,
		Workload:    scenario.Workload{Kind: scenario.KindIOR, Bytes: 64 * pfs.MB},
		Axes: []scenario.Axis{{
			Name: "machine",
			Values: []scenario.Value{
				machine("jaguar", "Jaguar", 469, map[string]scenario.Value{
					"osts": num(osts), "writers": num(osts),
				}),
				machine("franklin", "Franklin", 469, map[string]scenario.Value{
					"writers": num(franklinWriters),
				}),
				machine("xtp", "XTP(with Int.)", 100, xtpWith(true)),
				machine("xtp", "XTP(without Int.)", 100, xtpWith(false)),
			},
		}},
	}
}

// tableISamples sets the Jaguar, Franklin and per-XTP-row sample counts of
// a tableI spec (the spec-level count follows Jaguar's).
func tableISamples(s scenario.Scenario, jaguar, franklin, xtp int) scenario.Scenario {
	s.Samples = jaguar
	for i, n := range []int{jaguar, franklin, xtp, xtp} {
		s.Axes[0].Values[i].Samples = n
	}
	return s
}

// tableIDemux reduces the scenario run to the paper's table, one machine
// row per grid point in axis order.
func tableIDemux(run *scenario.Result) (*TableIResult, error) {
	res := &TableIResult{
		Table: metrics.Table{
			Title: "Table I: IO Performance Variability Due to External Interference",
			Header: []string{"Machine", "Number of Samples", "Avg. IO Bandwidth (MB/sec)",
				"Std. Deviation", "Covariance"},
		},
	}
	for _, pt := range run.Points {
		ms := MachineSeries{Machine: pt.Label}
		for _, r := range pt.Samples {
			ms.BWSamples = append(ms.BWSamples, r.AggregateBW/pfs.MB)
			ms.Imbalances = append(ms.Imbalances, stats.ImbalanceFactor(r.WriterTimes))
		}
		ms.Summary = stats.Summarize(ms.BWSamples)
		res.Series = append(res.Series, ms)
		res.Table.AddRow(
			pt.Label,
			fmt.Sprintf("%d", ms.Summary.N),
			fmt.Sprintf("%.3e", ms.Summary.Mean),
			fmt.Sprintf("%.3e", ms.Summary.StdDev),
			fmt.Sprintf("%.0f%%", ms.Summary.CoVPercent()),
		)
	}
	return res, nil
}

// xtpScale shrinks both the writer count and blade count by the scale
// divisor, preserving the writers-per-blade ratio that drives contention.
func xtpScale(scale int) (writers, blades int) {
	writers = 512 / scale
	blades = 40 / scale
	if blades < 2 {
		blades = 2
	}
	if writers < 2*blades {
		writers = 2 * blades
	}
	return writers, blades
}

// fig2Bins is the histogram resolution of every Figure 2 panel.
const fig2Bins = 12

// Fig2 renders the Table I sample sets as the paper's bandwidth histograms.
func Fig2(t *TableIResult) []metrics.HistogramFigure {
	out := make([]metrics.HistogramFigure, 0, len(t.Series))
	panel := 'a'
	for _, ms := range t.Series {
		out = append(out, metrics.HistogramFigure{
			Title: fmt.Sprintf("Figure 2(%c): %s", panel, ms.Machine),
			XUnit: "IO bandwidth (MB/s)",
			Bins:  fig2Bins,
			Data:  append([]float64(nil), ms.BWSamples...),
		})
		panel++
	}
	return out
}

// fig3GapSeconds is the virtual time between Test 1 and Test 2 (paper: the
// second test ran "only 3 minutes later").
const fig3GapSeconds = 180

// Fig3Result carries the two per-writer time profiles and the imbalance
// statistics.
type Fig3Result struct {
	Test1Times []float64
	Test2Times []float64
	Imbalance1 float64
	Imbalance2 float64
	// AvgImbalance is the overall average imbalance factor across the
	// spec's independent replica tests (the paper reports ~2 overall, with
	// individual tests up to 3.44).
	AvgImbalance float64
	MaxImbalance float64
}

// fig3 is the imbalanced-writers illustration's average-imbalance series:
// the hourly-test shape on a busy 512-OST Jaguar, one 128 MB writer per
// target, averaged over 40 tests (quick mode: 64 targets, 20 tests). Seed
// label "fig3", single grid point "imbalance". Writers follow the target
// count, so an osts override keeps the shape.
func fig3(quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        "fig3",
		Description: "Figure 3: imbalanced concurrent writers on a busy Jaguar",
		PointLabel:  "imbalance",
		Machine:     "jaguar",
		NumOSTs:     512,
		Samples:     40,
		Workload: scenario.Workload{
			Kind:          scenario.KindIOR,
			WritersPerOST: 1,
			Bytes:         128 * pfs.MB,
		},
	}
	if quick {
		s.NumOSTs, s.Samples = 64, 20
	}
	return s
}

// fig3Demux reduces the average-imbalance run and adds the two headline
// tests: two IOR runs three virtual minutes apart on one busy environment
// at the given seed, showing that external interference is transient.
// They share that environment and so run outside the replica grid, with
// the same writer count as the replicas.
func fig3Demux(run *scenario.Result, seed int64) (*Fig3Result, error) {
	s := run.Scenario
	osts := s.NumOSTs
	bytes := s.Workload.Bytes
	if bytes == 0 { // a size_mb override clears Bytes
		bytes = s.Workload.SizeMB * pfs.MB
	}
	writers := s.Workload.Writers
	if s.Workload.WritersPerOST > 0 {
		writers = osts * s.Workload.WritersPerOST
	}
	c, err := cluster.Preset(s.Machine, cluster.Config{
		Seed:            seed,
		NumOSTs:         osts,
		ProductionNoise: !s.NoNoise,
	})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	fs := c.FileSystem()
	cfg := ior.Config{
		Writers:        writers,
		BytesPerWriter: bytes,
		Mode:           ior.FilePerProcess,
		Job:            fs.RegisterJob("t1"),
	}
	r1, err := ior.Execute(fs, cfg)
	if err != nil {
		return nil, err
	}
	// Advance the clock: the machine's load drifts between the tests.
	c.RunFor(secondsToDuration(fig3GapSeconds))
	cfg.Job = fs.RegisterJob("t2")
	r2, err := ior.Execute(fs, cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Test1Times: r1.WriterTimes,
		Test2Times: r2.WriterTimes,
		Imbalance1: r1.ImbalanceFactor,
		Imbalance2: r2.ImbalanceFactor,
	}

	var acc stats.Accumulator
	for _, smp := range run.Points[0].Samples {
		f := stats.ImbalanceFactor(smp.WriterTimes)
		acc.Add(f)
		if f > res.MaxImbalance {
			res.MaxImbalance = f
		}
	}
	res.AvgImbalance = acc.Summary().Mean
	return res, nil
}
