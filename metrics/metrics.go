// Package metrics provides the result containers and renderers the
// benchmark harness uses to regenerate the paper's tables and figures as
// text: tables (Table I), bar/series figures (Figures 1, 5, 6, 7), and
// histograms (Figure 2). Everything renders to aligned ASCII text.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Summary re-exports the statistics summary for public consumers.
type Summary = stats.Summary

// Summarize computes a Summary over samples.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// ImbalanceFactor returns slowest/fastest (the paper's Section II metric).
func ImbalanceFactor(xs []float64) float64 { return stats.ImbalanceFactor(xs) }

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Point is one measured point of a figure series: a label (x), a value (y)
// and its observed min/max across samples (the paper's error bars).
type Point struct {
	Label string
	Value float64
	Min   float64
	Max   float64
}

// Series is one line/bar-group of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point computed from samples (value = mean, bars = min/max).
func (s *Series) Add(label string, samples []float64) {
	sum := stats.Summarize(samples)
	s.Points = append(s.Points, Point{Label: label, Value: sum.Mean, Min: sum.Min, Max: sum.Max})
}

// AddValue appends a single-valued point.
func (s *Series) AddValue(label string, v float64) {
	s.Points = append(s.Points, Point{Label: label, Value: v, Min: v, Max: v})
}

// Figure is a titled set of series sharing x labels, with a y unit.
type Figure struct {
	Title  string
	YUnit  string
	Series []Series
}

// AddSeries appends a series.
func (f *Figure) AddSeries(s Series) { f.Series = append(f.Series, s) }

// labels returns the union of x labels in first-seen order.
func (f *Figure) labels() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				out = append(out, p.Label)
			}
		}
	}
	return out
}

// Render draws the figure as a table: one row per x label, one column per
// series ("value [min..max]").
func (f *Figure) Render() string {
	t := Table{Title: f.Title}
	t.Header = append(t.Header, "x")
	for _, s := range f.Series {
		t.Header = append(t.Header, s.Name+" ("+f.YUnit+")")
	}
	byLabel := make([]map[string]Point, len(f.Series))
	for i, s := range f.Series {
		byLabel[i] = map[string]Point{}
		for _, p := range s.Points {
			byLabel[i][p.Label] = p
		}
	}
	for _, lbl := range f.labels() {
		row := []string{lbl}
		for i := range f.Series {
			p, ok := byLabel[i][lbl]
			if !ok {
				row = append(row, "-")
				continue
			}
			if p.Min == p.Max {
				row = append(row, fmt.Sprintf("%.2f", p.Value))
			} else {
				row = append(row, fmt.Sprintf("%.2f [%.2f..%.2f]", p.Value, p.Min, p.Max))
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// HistogramFigure renders sample data as the paper's Figure 2 histograms.
type HistogramFigure struct {
	Title string
	XUnit string
	Bins  int
	Data  []float64
}

// Render draws the histogram with ASCII bars.
func (h *HistogramFigure) Render() string {
	bins := h.Bins
	if bins <= 0 {
		bins = 12
	}
	hist := stats.HistogramOf(h.Data, bins)
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s (x: %s, n=%d)\n", h.Title, h.XUnit, len(h.Data))
	}
	b.WriteString(hist.Render(40))
	return b.String()
}

// FormatBytesPerSec pretty-prints a bandwidth.
func FormatBytesPerSec(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB/s", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MB/s", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KB/s", v/(1<<10))
	}
	return fmt.Sprintf("%.0f B/s", v)
}

// FormatBytes pretty-prints a byte volume.
func FormatBytes(v float64) string {
	switch {
	case v >= 1<<40:
		return fmt.Sprintf("%.2f TB", v/(1<<40))
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KB", v/(1<<10))
	}
	return fmt.Sprintf("%.0f B", v)
}

// SortedKeys returns the sorted keys of a string-keyed map (determinism
// helper for report generation).
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
