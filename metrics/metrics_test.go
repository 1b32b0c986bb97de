package metrics

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"name", "v"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatal("missing title")
	}
	if !strings.Contains(lines[2], "-----") {
		t.Fatal("missing separator")
	}
	// Columns aligned: "alpha" sets width 5.
	if !strings.HasPrefix(lines[4], "b    ") {
		t.Fatalf("misaligned row: %q", lines[4])
	}
}

func TestSeriesAddComputesBars(t *testing.T) {
	var s Series
	s.Add("512", []float64{10, 20, 30})
	p := s.Points[0]
	if p.Value != 20 || p.Min != 10 || p.Max != 30 {
		t.Fatalf("point = %+v", p)
	}
	s.AddValue("1024", 7)
	if s.Points[1].Min != 7 || s.Points[1].Max != 7 {
		t.Fatal("AddValue bars wrong")
	}
}

func TestFigureRenderUnionOfLabels(t *testing.T) {
	f := Figure{Title: "Fig", YUnit: "GB/s"}
	var a, b Series
	a.Name, b.Name = "MPI", "ADAPTIVE"
	a.AddValue("512", 1)
	a.AddValue("1024", 2)
	b.AddValue("1024", 3)
	f.AddSeries(a)
	f.AddSeries(b)
	out := f.Render()
	if !strings.Contains(out, "512") || !strings.Contains(out, "1024") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "-") { // missing cell marker for ADAPTIVE@512
		t.Fatalf("missing-cell marker absent:\n%s", out)
	}
}

func TestHistogramFigure(t *testing.T) {
	h := HistogramFigure{Title: "H", XUnit: "MB/s", Bins: 4,
		Data: []float64{1, 2, 2, 3, 9}}
	out := h.Render()
	if !strings.Contains(out, "n=5") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if strings.Count(out, "\n") != 5 {
		t.Fatalf("bin lines wrong:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		512:     "512 B/s",
		2048:    "2.00 KB/s",
		3 << 20: "3.00 MB/s",
		5 << 30: "5.00 GB/s",
	}
	for v, want := range cases { //repro:allow nodeterm independent table-driven cases over a pure formatter
		if got := FormatBytesPerSec(v); got != want {
			t.Errorf("FormatBytesPerSec(%v) = %q, want %q", v, got, want)
		}
	}
	if got := FormatBytes(float64(3) * (1 << 40)); got != "3.00 TB" {
		t.Errorf("FormatBytes TB = %q", got)
	}
	if got := FormatBytes(100); got != "100 B" {
		t.Errorf("FormatBytes B = %q", got)
	}
}

func TestSummaryReexports(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.Mean != 2 {
		t.Fatal("Summarize re-export broken")
	}
	if ImbalanceFactor([]float64{1, 3.44}) != 3.44 {
		t.Fatal("ImbalanceFactor re-export broken")
	}
}
