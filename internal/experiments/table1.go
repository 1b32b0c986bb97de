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

// TableIOptions configures the external-interference variability study
// (Table I, Figure 2, Figure 3). The zero value reproduces the paper:
// hourly IOR tests with 512 writers / one per storage target on Jaguar
// (469 samples), the NERSC 80-writer series on Franklin, and two controlled
// XTP configurations (one IOR job vs two simultaneous IOR jobs).
type TableIOptions struct {
	// JaguarSamples (paper: 469), FranklinSamples (paper: ~2 years of
	// hourly tests; we default to 469 as well), XTPSamples per mode.
	JaguarSamples   int
	FranklinSamples int
	XTPSamples      int
	// BytesPerWriter is the per-writer IOR size (the paper does not state
	// it for the hourly tests; 64 MB gives multi-second transfers that see
	// through cache absorption).
	BytesPerWriter float64
	// ScaleOSTs optionally scales each machine's target (and writer) count
	// by this divisor for fast runs (0 or 1 = paper scale).
	ScaleOSTs int
}

func (o *TableIOptions) defaults() {
	if o.JaguarSamples <= 0 {
		o.JaguarSamples = 469
	}
	if o.FranklinSamples <= 0 {
		o.FranklinSamples = 469
	}
	if o.XTPSamples <= 0 {
		o.XTPSamples = 100
	}
	if o.BytesPerWriter <= 0 {
		o.BytesPerWriter = 64 * pfs.MB
	}
	if o.ScaleOSTs <= 0 {
		o.ScaleOSTs = 1
	}
}

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

// TableIScenario expresses the study declaratively: one "machine" axis
// whose values carry With bundles switching machine preset, target/writer
// counts, noise and workload kind together — Table I's rows are literally
// four configurations of one spec. Seed label "table1" and the row-name
// point labels reproduce the pre-scenario replica streams exactly.
func TableIScenario(opt TableIOptions) scenario.Scenario {
	opt.defaults()
	osts := 512 / opt.ScaleOSTs
	franklinWriters := 80 / opt.ScaleOSTs
	if franklinWriters < 2 {
		franklinWriters = 2
	}
	xtpWriters, xtpBlades := xtpScale(opt.ScaleOSTs)
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
		Samples:     opt.JaguarSamples,
		Workload:    scenario.Workload{Kind: scenario.KindIOR, Bytes: opt.BytesPerWriter},
		Axes: []scenario.Axis{{
			Name: "machine",
			Values: []scenario.Value{
				machine("jaguar", "Jaguar", opt.JaguarSamples, map[string]scenario.Value{
					"osts": num(osts), "writers": num(osts),
				}),
				machine("franklin", "Franklin", opt.FranklinSamples, map[string]scenario.Value{
					"writers": num(franklinWriters),
				}),
				machine("xtp", "XTP(with Int.)", opt.XTPSamples, xtpWith(true)),
				machine("xtp", "XTP(without Int.)", opt.XTPSamples, xtpWith(false)),
			},
		}},
	}
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

// Fig3Options configures the imbalanced-writers illustration.
type Fig3Options struct {
	// OSTs and writers (one per target); paper: 512, 128 MB per process.
	OSTs           int
	BytesPerWriter float64
	// AverageOver is how many additional tests feed the overall average
	// imbalance factor the paper reports.
	AverageOver int
}

func (o *Fig3Options) defaults() {
	if o.OSTs <= 0 {
		o.OSTs = 512
	}
	if o.BytesPerWriter <= 0 {
		o.BytesPerWriter = 128 * pfs.MB
	}
	if o.AverageOver <= 0 {
		o.AverageOver = 40
	}
}

// Fig3Result carries the two per-writer time profiles and the imbalance
// statistics.
type Fig3Result struct {
	Test1Times []float64
	Test2Times []float64
	Imbalance1 float64
	Imbalance2 float64
	// AvgImbalance is the overall average imbalance factor across
	// AverageOver independent tests (the paper reports ~2 overall, with
	// individual tests up to 3.44).
	AvgImbalance float64
	MaxImbalance float64
}

// Fig3Scenario expresses the average-imbalance series: the hourly-test
// shape at this option set, seed label "fig3", single grid point
// "imbalance". Writers follow the target count (one per target), so an
// osts override keeps the shape.
func Fig3Scenario(opt Fig3Options) scenario.Scenario {
	opt.defaults()
	return scenario.Scenario{
		Name:        "fig3",
		Description: "Figure 3: imbalanced concurrent writers on a busy Jaguar",
		PointLabel:  "imbalance",
		Machine:     "jaguar",
		NumOSTs:     opt.OSTs,
		Samples:     opt.AverageOver,
		Workload: scenario.Workload{
			Kind:          scenario.KindIOR,
			WritersPerOST: 1,
			Bytes:         opt.BytesPerWriter,
		},
	}
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
		OSTs:           firstN(osts),
		BytesPerWriter: bytes,
		Mode:           ior.FilePerProcess,
		Tag:            "t1",
	}
	r1, err := ior.Execute(fs, cfg)
	if err != nil {
		return nil, err
	}
	// Advance the clock: the machine's load drifts between the tests.
	c.RunFor(secondsToDuration(fig3GapSeconds))
	cfg.Tag = "t2"
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
