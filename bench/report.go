package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Summary is a metric's median and quartiles over n values.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, which must not be empty.
// The quartiles follow Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads computed from this output and from a
// script agree.
func summarize(xs []float64) Summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	out := Summary{N: n, Median: (s[(n-1)/2] + s[n/2]) / 2, Q1: s[0], Q3: s[0]}
	if n == 1 {
		return out
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = quartile(1), quartile(3)
	return out
}

// failedFrac is the end-to-end correctness metric: artifacts missing or not
// matching their expected digest, over artifacts expected. It is reported
// beside the BENCHMARK.json metrics rather than among them, because it is 0
// whenever the program is correct.
const failedFrac = "failed_frac"

// endToEndSeries gathers each end-to-end metric's values over a workload's
// untraced runs: every set-up each run timed, and one value per run for the
// rest.
func endToEndSeries(r *workloadResult) map[string][]float64 {
	m := map[string][]float64{}
	for _, rec := range r.runs {
		m["setup_s"] = append(m["setup_s"], rec.SetupS...)
		m["wall_s"] = append(m["wall_s"], rec.WallS)
		m["cpu_s"] = append(m["cpu_s"], rec.CPUS)
		m["alloc_gb"] = append(m["alloc_gb"], rec.AllocBytes/1e9)
	}
	return m
}

// layerMetrics lists every per-layer metric a traced run measures, in
// report order. All of them are printed; the result line carries the subset
// that BENCHMARK.json names, which leaves out those that are 0, or only a
// few profile samples, on some workload.
var layerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{Name: l + ".self_cpu_s", Unit: "s"})
	}
	var entries []string
	for name := range entryPoints {
		entries = append(entries, name)
	}
	slices.Sort(entries)
	for _, name := range entries {
		defs = append(defs, metricDef{Name: name, Unit: "s"})
	}
	return append(defs,
		metricDef{Name: "campaign.run_s", Unit: "s"},
		metricDef{Name: "campaign.render_s", Unit: "s"},
		metricDef{Name: "bench.verify_s", Unit: "s"},
		metricDef{Name: "campaign.replicas", Unit: "count"},
		metricDef{Name: "campaign.tail_idle_s", Unit: "s"},
		metricDef{Name: "runtime.gc_cpu_s", Unit: "s"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count"},
		metricDef{Name: "runtime.alloc_gb", Unit: "GB"},
		metricDef{Name: "runtime.peak_rss_mb", Unit: "MB"},
		metricDef{Name: "trace.cpu_samples", Unit: "count"},
		metricDef{Name: "trace.overhead_frac", Unit: "ratio"},
	)
}()

// layerValues computes the per-layer metrics of a workload's traced run.
func layerValues(r *workloadResult) map[string]float64 {
	t, a := r.traced, r.att
	m := map[string]float64{
		"campaign.run_s":       t.RunS,
		"campaign.render_s":    t.RenderS,
		"bench.verify_s":       t.VerifyS,
		"campaign.replicas":    float64(t.Replicas),
		"campaign.tail_idle_s": t.TailIdleS,
		"runtime.gc_cpu_s":     t.GCCPUS,
		"runtime.gc_cycles":    t.GCCycles,
		"runtime.alloc_gb":     t.AllocBytes / 1e9,
		"runtime.peak_rss_mb":  t.PeakRSSMB,
		"trace.cpu_samples":    float64(a.Samples),
	}
	for l, ns := range a.SelfNS {
		m[l+".self_cpu_s"] = float64(ns) / 1e9
	}
	for metric, ns := range a.EntryNS {
		m[metric] = float64(ns) / 1e9
	}
	if len(r.runs) > 0 {
		m["trace.overhead_frac"] = t.WallS/summarize(endToEndSeries(r)["wall_s"]).Median - 1
	}
	return m
}

// writeWork prints the simulated work a run did, summed over every
// replica's Sample and JobSample, one "work" line per count. These are
// invariants beside the digests, not metrics: at a given seed they must
// not change, so a "speed-up" that does less simulated work shows as a
// diff here.
func writeWork(out io.Writer, workload string, rec *runRecord) {
	fmt.Fprintf(out, "work %s pfs.gb_written %v GB\n", workload, rec.BytesWritten/1e9)
	fmt.Fprintf(out, "work %s pfs.gb_read %v GB\n", workload, rec.BytesRead/1e9)
	fmt.Fprintf(out, "work %s pfs.meta_ops %d count\n", workload, rec.MetaOps)
	fmt.Fprintf(out, "work %s core.redirected_writes %d count\n", workload, rec.RedirectedWrites)
}

// Row is one (workload, metric) result. Pass compares an end-to-end metric
// with the first calibration set at its bound, and is null when no
// calibration with an equal header exists or the metric has no bound.
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
	Unit     string  `json:"unit"`
	Pass     *bool   `json:"pass"`
}

// reportSchema names the -json layout; change it whenever Report or Row
// changes shape.
const reportSchema = "repro-bench/1"

// Report is the -json output: the header and every row.
type Report struct {
	Schema string `json:"schema"`
	Header Header `json:"header"`
	Rows   []Row  `json:"rows"`
}

// buildReport turns the workload results into rows: the end-to-end metrics
// and failed_frac for every workload, then, for a traced workload, the
// per-layer metrics. A metric with no value (its runs failed, or a name the driver
// does not measure) has no row, which makes the result line incorrect.
func buildReport(cfg *config, hdr Header, results []*workloadResult) *Report {
	rep := &Report{Schema: reportSchema, Header: hdr}
	var baseline map[string]map[string]Summary
	if cfg.calib != nil && cfg.calib.Header == hdr && len(cfg.calib.Sets) > 0 {
		baseline = cfg.calib.Sets[0]
	}
	for _, r := range results {
		series := endToEndSeries(r)
		for _, def := range cfg.endToEnd {
			xs := series[def.Name]
			if len(xs) == 0 {
				continue
			}
			s := summarize(xs)
			row := Row{Workload: r.w.Name, Metric: def.Name, Value: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.N, Unit: def.Unit}
			if base, ok := baseline[r.w.Name][def.Name]; ok {
				pass := s.Median <= base.Median*(1+def.Bound)
				row.Pass = &pass
			}
			rep.Rows = append(rep.Rows, row)
		}
		frac := float64(r.failed) / float64(max(r.attempted, 1))
		pass := r.failed == 0
		rep.Rows = append(rep.Rows, Row{Workload: r.w.Name, Metric: failedFrac, Value: frac, Q1: frac, Q3: frac, N: 1, Unit: "ratio", Pass: &pass})

		if r.traced == nil {
			continue
		}
		values := layerValues(r)
		for _, def := range layerMetrics {
			v, ok := values[def.Name]
			if !ok {
				continue
			}
			rep.Rows = append(rep.Rows, Row{Workload: r.w.Name, Metric: def.Name, Value: v, Q1: v, Q3: v, N: 1, Unit: def.Unit})
		}
	}
	return rep
}

// writeTable prints the rows for a reader, one workload after another.
func writeTable(out io.Writer, rep *Report) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tn\tunit\tpass\t")
	for _, r := range rep.Rows {
		pass := "-"
		if r.Pass != nil {
			pass = fmt.Sprint(*r.Pass)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%s\t\n", r.Workload, r.Metric, r.Value, r.Q1, r.Q3, r.N, r.Unit, pass)
	}
	tw.Flush()
}

// writeShares prints each layer's share of a traced run's CPU profile.
func writeShares(out io.Writer, r *workloadResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "layer shares %s (%d samples):", r.w.Name, r.att.Samples)
	for _, l := range layers {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*float64(r.att.SelfNS[l])/float64(max(r.att.TotalNS, 1)))
	}
	fmt.Fprintln(out, b.String())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line verdict printed last: with one workload its
// metrics are keyed by metric name; with several, by "workload/metric".
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResultLine(cfg *config, rep *Report, results []*workloadResult, traced bool) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Attempted += r.attempted
		line.Failed += r.failed
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	wanted := map[string]bool{}
	defs := cfg.endToEnd
	if traced {
		defs = cfg.perLayer
	}
	for _, d := range defs {
		wanted[d.Name] = true
	}
	for _, row := range rep.Rows {
		if !wanted[row.Metric] {
			continue
		}
		key := row.Metric
		if len(results) > 1 {
			key = row.Workload + "/" + row.Metric
		}
		line.Metrics[key] = metricValue{Value: row.Value, Unit: row.Unit}
	}
	if len(line.Metrics) != len(defs)*len(results) {
		line.Correct = false
	}
	return line
}

func writeJSONLine(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
