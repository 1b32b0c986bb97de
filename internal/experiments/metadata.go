package experiments

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// MetadataOptions configures the metadata-variability study — the paper's
// future-work item "other sources of variability, including that of
// metadata operations like file opens", using the stagger technique carried
// from the authors' earlier Cray User's Group work.
type MetadataOptions struct {
	// Writers is the number of ranks opening files simultaneously.
	Writers int
	// Samples per configuration.
	Samples int
	// Staggers are the create-spacing values to sweep (0 = burst).
	Staggers []time.Duration
}

func (o *MetadataOptions) defaults() {
	if o.Writers <= 0 {
		o.Writers = 512
	}
	if o.Samples <= 0 {
		o.Samples = 10
	}
	if len(o.Staggers) == 0 {
		o.Staggers = []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	}
}

// MetadataResult is the study's outcome: per stagger value, the open-storm
// completion time (mean and CoV) and the MDS queue peak.
type MetadataResult struct {
	Table metrics.Table
	// StormTimes[stagger] holds the per-sample storm completion times.
	StormTimes map[time.Duration][]float64
	// QueuePeaks[stagger] holds the per-sample MDS queue peaks.
	QueuePeaks map[time.Duration][]int
}

// MetadataScenario expresses the study declaratively: the openstorm
// workload on a 64-target Jaguar slice swept over a "stagger" axis whose
// point labels are the Duration strings the hand-written driver used.
func MetadataScenario(opt MetadataOptions) scenario.Scenario {
	opt.defaults()
	staggers := make([]scenario.Value, len(opt.Staggers))
	for i, d := range opt.Staggers {
		v := scenario.NumValue(float64(d))
		v.Label = d.String()
		staggers[i] = v
	}
	return scenario.Scenario{
		Name:        "metadata",
		Description: "Metadata open-storm study (future-work extension)",
		Machine:     "jaguar",
		NumOSTs:     64,
		NoNoise:     true,
		Samples:     opt.Samples,
		Workload:    scenario.Workload{Kind: scenario.KindOpenStorm, Writers: opt.Writers},
		Axes:        []scenario.Axis{{Name: "stagger", Values: staggers}},
	}
}

// metadataDemux reduces the scenario run to the study's table, one stagger
// value per grid point in axis order.
func metadataDemux(run *scenario.Result) (*MetadataResult, error) {
	res := &MetadataResult{
		Table: metrics.Table{
			Title: "Metadata open-storm study (future-work extension)",
			Header: []string{"Stagger", "Mean storm time (s)", "CoV",
				"Mean MDS queue peak"},
		},
		StormTimes: map[time.Duration][]float64{},
		QueuePeaks: map[time.Duration][]int{},
	}
	for _, pt := range run.Points {
		stagger := time.Duration(int64(pt.Params.Float("stagger", 0)))
		var peakSum float64
		for _, r := range pt.Samples {
			res.StormTimes[stagger] = append(res.StormTimes[stagger], r.Elapsed)
			res.QueuePeaks[stagger] = append(res.QueuePeaks[stagger], r.QueuePeak)
			peakSum += float64(r.QueuePeak)
		}
		sum := stats.Summarize(res.StormTimes[stagger])
		res.Table.AddRow(
			stagger.String(),
			fmt.Sprintf("%.3f", sum.Mean),
			fmt.Sprintf("%.0f%%", sum.CoVPercent()),
			fmt.Sprintf("%.0f", peakSum/float64(len(pt.Samples))),
		)
	}
	return res, nil
}
