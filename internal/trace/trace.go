// Package trace samples the storage system's state over virtual time and
// renders timelines: per-target activity heatmaps and aggregate throughput
// series. It is the observability layer one would use to *see* the paper's
// phenomena — slow areas appearing and draining away under adaptive IO —
// rather than just measure their endpoints.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Sample is one snapshot of the file system.
type Sample struct {
	// T is the virtual time in seconds.
	T float64
	// Flows is the number of active write streams per target.
	Flows []int
	// Cache is the dirty-byte level per target.
	Cache []float64
	// Slow is the service factor per target (1 = clean).
	Slow []float64
	// Ext is the external stream count per target.
	Ext []int
	// Health is the lifecycle state per target (healthy, degraded, dead,
	// rebuilding — see pfs.HealthState).
	Health []pfs.HealthState
	// Drained is the cumulative bytes on disk across all targets.
	Drained float64
	// Jobs is the cumulative attributed traffic per job id (index 0 is the
	// unattributed bucket); empty when no jobs are registered.
	Jobs []pfs.JobIO
}

// Tracer periodically samples a file system.
type Tracer struct {
	fs       *pfs.FileSystem
	interval float64
	samples  []Sample
	// MaxSamples bounds memory; sampling stops when reached (0 = 100k).
	MaxSamples int
}

// Start begins sampling every interval virtual seconds. The sampler is a
// daemon: it samples while the kernel runs, and never keeps a run going.
func Start(fs *pfs.FileSystem, interval float64) *Tracer {
	if interval <= 0 {
		interval = 1
	}
	t := &Tracer{fs: fs, interval: interval, MaxSamples: 100000}
	fs.K.SpawnDaemon(&sampler{t: t})
	return t
}

// sampler is the tracer's sampling process: one snapshot per interval until
// the tracer is full.
type sampler struct{ t *Tracer }

// Step implements simkernel.Cont.
func (s *sampler) Step(c *simkernel.ContProc) bool {
	t := s.t
	if len(t.samples) >= t.MaxSamples {
		return true
	}
	t.take(c.Now())
	c.SleepSeconds(t.interval)
	return false
}

// take records one sample (kernel/process context).
func (t *Tracer) take(now simkernel.Time) {
	n := len(t.fs.OSTs)
	s := Sample{
		T:      now.Seconds(),
		Flows:  make([]int, n),
		Cache:  make([]float64, n),
		Slow:   make([]float64, n),
		Ext:    make([]int, n),
		Health: make([]pfs.HealthState, n),
	}
	for i, o := range t.fs.OSTs {
		s.Cache[i] = o.CacheLevel() // advances fluid state
		s.Flows[i] = o.ActiveFlows()
		s.Slow[i] = o.SlowFactor()
		s.Ext[i] = o.ExternalStreams()
		s.Health[i] = o.Health()
	}
	s.Drained = t.fs.TotalBytesDrained()
	if n := t.fs.JobCount(); n > 0 {
		s.Jobs = make([]pfs.JobIO, n+1)
		for j := range s.Jobs {
			s.Jobs[j] = t.fs.JobIO(j)
		}
	}
	t.samples = append(t.samples, s)
}

// Samples returns the recorded snapshots.
func (t *Tracer) Samples() []Sample { return t.samples }

// glyphFor maps an activity level to a heat glyph.
func glyphFor(level float64) byte {
	glyphs := []byte(" .:-=+*#")
	if level <= 0 {
		return glyphs[0]
	}
	if level >= 1 {
		return glyphs[len(glyphs)-1]
	}
	return glyphs[int(level*float64(len(glyphs)-1))+0]
}

// RenderActivity draws a heatmap: one row per target, one column per
// sample (subsampled to width), glyph intensity = active flows normalised
// to the observed maximum.
func (t *Tracer) RenderActivity(width int) string {
	if len(t.samples) == 0 {
		return "(no samples)\n"
	}
	if width <= 0 {
		width = 72
	}
	cols := len(t.samples)
	if cols > width {
		cols = width
	}
	maxFlows := 1
	for _, s := range t.samples {
		for _, f := range s.Flows {
			if f > maxFlows {
				maxFlows = f
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-target write activity over %.0fs (max %d concurrent flows)\n",
		t.samples[len(t.samples)-1].T-t.samples[0].T, maxFlows)
	n := len(t.fs.OSTs)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "OST%03d |", i)
		for c := 0; c < cols; c++ {
			idx := c * len(t.samples) / cols
			level := float64(t.samples[idx].Flows[i]) / float64(maxFlows)
			b.WriteByte(glyphFor(level))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// RenderSlowness draws a heatmap of service degradation (darker = slower),
// making interference episodes visible.
func (t *Tracer) RenderSlowness(width int) string {
	if len(t.samples) == 0 {
		return "(no samples)\n"
	}
	if width <= 0 {
		width = 72
	}
	cols := len(t.samples)
	if cols > width {
		cols = width
	}
	var b strings.Builder
	b.WriteString("per-target slowness over time (darker = more degraded)\n")
	for i := 0; i < len(t.fs.OSTs); i++ {
		fmt.Fprintf(&b, "OST%03d |", i)
		for c := 0; c < cols; c++ {
			idx := c * len(t.samples) / cols
			s := t.samples[idx]
			degr := 1 - s.Slow[i]
			if s.Ext[i] > 0 {
				degr += 0.25
			}
			b.WriteByte(glyphFor(degr))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// healthGlyph maps a lifecycle state to a timeline glyph.
func healthGlyph(h pfs.HealthState) byte {
	switch h {
	case pfs.Degraded:
		return '-'
	case pfs.Dead:
		return 'X'
	case pfs.Rebuilding:
		return 'r'
	default:
		return '.'
	}
}

// RenderHealth draws the lifecycle timeline per target: '.' healthy,
// '-' degraded, 'X' dead, 'r' rebuilding. Returns "" when every sample saw
// every target healthy, so failure-free runs print nothing extra.
func (t *Tracer) RenderHealth(width int) string {
	if len(t.samples) == 0 {
		return ""
	}
	if width <= 0 {
		width = 72
	}
	any := false
	for _, s := range t.samples {
		for _, h := range s.Health {
			if h != pfs.Healthy {
				any = true
			}
		}
	}
	if !any {
		return ""
	}
	cols := len(t.samples)
	if cols > width {
		cols = width
	}
	var b strings.Builder
	b.WriteString("per-target health over time (. healthy, - degraded, X dead, r rebuilding)\n")
	for i := 0; i < len(t.fs.OSTs); i++ {
		fmt.Fprintf(&b, "OST%03d |", i)
		for c := 0; c < cols; c++ {
			idx := c * len(t.samples) / cols
			b.WriteByte(healthGlyph(t.samples[idx].Health[i]))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// jobTraffic returns the cumulative attributed bytes (written + read) of
// job j at sample i, tolerating samples taken before the job registered.
func (t *Tracer) jobTraffic(i, j int) float64 {
	s := t.samples[i]
	if j >= len(s.Jobs) {
		return 0
	}
	return s.Jobs[j].BytesWritten + s.Jobs[j].BytesRead
}

// RenderJobs draws one bandwidth timeline per registered job (glyph
// intensity = the job's traffic between consecutive samples, normalised to
// the busiest interval of any job), making co-scheduled phase patterns and
// contention visible. Returns "" when the trace saw no registered jobs.
func (t *Tracer) RenderJobs(width int) string {
	njobs := t.fs.JobCount()
	if njobs == 0 || len(t.samples) < 2 {
		return ""
	}
	if width <= 0 {
		width = 72
	}
	cols := len(t.samples) - 1
	if cols > width {
		cols = width
	}
	max := 0.0
	for j := 1; j <= njobs; j++ {
		for i := 1; i < len(t.samples); i++ {
			if d := t.jobTraffic(i, j) - t.jobTraffic(i-1, j); d > max {
				max = d
			}
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	b.WriteString("per-job traffic over time (row = job, darker = closer to the busiest interval)\n")
	for j := 1; j <= njobs; j++ {
		fmt.Fprintf(&b, "%-12s |", t.fs.JobName(j))
		for c := 0; c < cols; c++ {
			// Map the column to a sample interval, mirroring the heatmaps.
			idx := c*(len(t.samples)-1)/cols + 1
			d := t.jobTraffic(idx, j) - t.jobTraffic(idx-1, j)
			b.WriteByte(glyphFor(d / max))
		}
		last := len(t.samples) - 1
		fmt.Fprintf(&b, "| %8.1f MB\n", t.jobTraffic(last, j)/pfs.MB)
	}
	return b.String()
}

// Throughput returns the aggregate disk throughput series (bytes/sec)
// between consecutive samples.
func (t *Tracer) Throughput() []float64 {
	if len(t.samples) < 2 {
		return nil
	}
	out := make([]float64, 0, len(t.samples)-1)
	for i := 1; i < len(t.samples); i++ {
		dt := t.samples[i].T - t.samples[i-1].T
		if dt <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (t.samples[i].Drained-t.samples[i-1].Drained)/dt)
	}
	return out
}

// RenderThroughput draws the aggregate throughput as a sparkline-style bar
// column.
func (t *Tracer) RenderThroughput(width int) string {
	tp := t.Throughput()
	if len(tp) == 0 {
		return "(no samples)\n"
	}
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, v := range tp {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	b.WriteString("aggregate disk throughput over time\n")
	for i, v := range tp {
		bar := int(v / max * float64(width))
		fmt.Fprintf(&b, "t=%7.1fs |%-*s %8.1f MB/s\n",
			t.samples[i+1].T, width, strings.Repeat("#", bar), v/pfs.MB)
	}
	return b.String()
}
