package scenario

import (
	"context"
	"fmt"

	"repro/cluster"
	"repro/internal/runner"
	"repro/internal/trace"
)

// RunOptions configures one scenario execution. World reuse is not an
// option: every worker rents its replicas' worlds from its own
// cluster.Pool, and a reused world gives the same results as a fresh one.
type RunOptions struct {
	// Seed is the master seed every replica derives from.
	Seed int64
	// Parallel bounds the replica worker pool (1 = sequential, <=0 = all
	// cores). Results are bit-identical at every setting.
	Parallel int
	// Context cancels the campaign between replicas (nil = background).
	Context context.Context
	// Progress, if set, is called after each replica completes.
	Progress func(done, total int, key runner.ReplicaKey)
	// Trace, if set, records a per-OST timeline of one replica.
	Trace *TraceOptions
}

// TraceOptions selects which replica to trace and how often to sample.
type TraceOptions struct {
	// IntervalSeconds is the sampling period in virtual seconds
	// (default 1).
	IntervalSeconds float64
	// Point is the grid-point label to trace (default: the first point).
	Point string
	// Sample is the sample index at that point to trace (default 0).
	Sample int
}

// PointResult is one grid point's measurements.
type PointResult struct {
	Label   string
	Params  Params
	Samples []Sample
}

// TraceResult is the per-OST timeline of the traced replica.
type TraceResult struct {
	Key     runner.ReplicaKey
	Samples []trace.Sample
	// Activity / Slowness are per-target heatmaps; Throughput is the
	// aggregate disk-throughput timeline (rendered while the replica's
	// file system was live). Jobs is the per-job traffic timeline, empty
	// unless the replica co-scheduled registered jobs. Health is the
	// per-target lifecycle timeline, empty unless some target left the
	// healthy state.
	Activity   string
	Slowness   string
	Throughput string
	Jobs       string
	Health     string
}

// Render concatenates the trace's renderings.
func (t *TraceResult) Render() string {
	out := fmt.Sprintf("Trace of replica %v (%d samples)\n\nActivity (flows per target):\n%s\nSlowness (service degradation):\n%s\nAggregate throughput:\n%s",
		t.Key, len(t.Samples), t.Activity, t.Slowness, t.Throughput)
	if t.Jobs != "" {
		out += "\nPer-job traffic:\n" + t.Jobs
	}
	if t.Health != "" {
		out += "\nTarget health:\n" + t.Health
	}
	return out
}

// Result is a scenario run's full outcome: one PointResult per grid point
// in compile order, plus the optional trace.
type Result struct {
	Scenario Scenario
	Points   []PointResult
	Trace    *TraceResult

	byLabel map[string]int
}

// Point returns the grid point with the given label, or nil.
func (r *Result) Point(label string) *PointResult {
	if i, ok := r.byLabel[label]; ok {
		return &r.Points[i]
	}
	return nil
}

// traceCapture carries the tracer of the one traced replica from attach
// (cluster built) to finish (before cluster shutdown, while renders can
// still read the live file system). A nil capture is inert, so the replica
// execution paths call it unconditionally.
type traceCapture struct {
	interval float64
	key      runner.ReplicaKey
	tracer   *trace.Tracer
	out      *TraceResult
}

func (t *traceCapture) attach(c *cluster.Cluster) {
	if t == nil {
		return
	}
	t.tracer = c.Trace(t.interval)
}

func (t *traceCapture) finish() {
	if t == nil || t.tracer == nil {
		return
	}
	t.out = &TraceResult{
		Key:        t.key,
		Samples:    t.tracer.Samples(),
		Activity:   t.tracer.RenderActivity(72),
		Slowness:   t.tracer.RenderSlowness(72),
		Throughput: t.tracer.RenderThroughput(50),
		Jobs:       t.tracer.RenderJobs(72),
		Health:     t.tracer.RenderHealth(72),
	}
}

// Run validates the spec, compiles its grid, executes every replica on the
// worker pool, and demuxes the results back into grid points. Replica
// seeds derive from (seed label, point label, sample index) only, so the
// outcome is bit-identical at every Parallel setting.
func Run(s Scenario, opt RunOptions) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	keys, pts := s.ReplicaKeys()

	cfgs := make([]replicaCfg, len(pts))
	pointIdx := make(map[string]int, len(pts))
	for i, pt := range pts {
		cfg, err := s.point(pt.Params)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: point %q: %w", s.seedLabel(), pt.Label, err)
		}
		cfgs[i] = cfg
		pointIdx[pt.Label] = i
	}

	var tc *traceCapture
	if opt.Trace != nil {
		label := opt.Trace.Point
		if label == "" {
			label = pts[0].Label
		}
		pi, ok := pointIdx[label]
		if !ok {
			return nil, fmt.Errorf("scenario %s: trace point %q not in the grid", s.seedLabel(), label)
		}
		if opt.Trace.Sample < 0 || opt.Trace.Sample >= pts[pi].Samples {
			return nil, fmt.Errorf("scenario %s: trace sample %d out of range (point %q has %d)",
				s.seedLabel(), opt.Trace.Sample, label, pts[pi].Samples)
		}
		interval := opt.Trace.IntervalSeconds
		if interval <= 0 {
			interval = 1
		}
		tc = &traceCapture{
			interval: interval,
			key:      runner.ReplicaKey{Driver: s.seedLabel(), Point: label, Sample: opt.Trace.Sample},
		}
	}

	// Each worker owns a private pool of reusable worlds; the per-worker
	// cleanup shuts pooled worlds down on every exit path (including
	// cancellation).
	results, err := runner.RunWorkers(runner.Options{
		Parallel: opt.Parallel,
		Context:  opt.Context,
		Progress: opt.Progress,
		WorkerInit: func() (any, func()) {
			p := cluster.NewPool()
			return p, func() { p.Close() }
		},
	}, keys, func(k runner.ReplicaKey, local any) (Sample, error) {
		var capture *traceCapture
		if tc != nil && tc.key == k {
			capture = tc
		}
		return s.execReplica(cfgs[pointIdx[k.Point]], k.Seed(opt.Seed), local.(*cluster.Pool), capture)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: s, byLabel: pointIdx}
	idx := 0
	for _, pt := range pts {
		pr := PointResult{Label: pt.Label, Params: pt.Params}
		pr.Samples = append(pr.Samples, results[idx:idx+pt.Samples]...)
		idx += pt.Samples
		res.Points = append(res.Points, pr)
	}
	if tc != nil {
		res.Trace = tc.out
	}
	return res, nil
}
