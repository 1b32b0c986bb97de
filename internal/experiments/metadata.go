package experiments

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// MetadataResult is the study's outcome: per stagger value, the open-storm
// completion time (mean and CoV) and the MDS queue peak.
type MetadataResult struct {
	Table metrics.Table
	// StormTimes[stagger] holds the per-sample storm completion times.
	StormTimes map[time.Duration][]float64
	// QueuePeaks[stagger] holds the per-sample MDS queue peaks.
	QueuePeaks map[time.Duration][]int
}

// metadata is the metadata-variability study — the paper's future-work
// item "other sources of variability, including that of metadata
// operations like file opens", using the stagger technique carried from
// the authors' earlier Cray User's Group work: 512 ranks open files at
// once on a quiet 64-target Jaguar slice, 10 samples per create spacing,
// swept over a "stagger" axis from a burst to 20 ms (quick mode: 128
// ranks, 5 samples).
func metadata(quick bool) scenario.Scenario {
	s := scenario.Scenario{
		Name:        "metadata",
		Description: "Metadata open-storm study (future-work extension)",
		Machine:     "jaguar",
		NumOSTs:     64,
		NoNoise:     true,
		Samples:     10,
		Workload:    scenario.Workload{Kind: scenario.KindOpenStorm, Writers: 512},
		Axes: []scenario.Axis{{Name: "stagger",
			Values: staggers(0, time.Millisecond, 5*time.Millisecond, 20*time.Millisecond)}},
	}
	if quick {
		s.Workload.Writers, s.Samples = 128, 5
	}
	return s
}

// staggers builds the stagger axis values: each create spacing, labelled
// with its Duration string as the hand-written driver did.
func staggers(ds ...time.Duration) []scenario.Value {
	out := make([]scenario.Value, len(ds))
	for i, d := range ds {
		out[i] = scenario.NumValue(float64(d))
		out[i].Label = d.String()
	}
	return out
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
