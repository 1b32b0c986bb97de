package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Sample stddev with n-1: variance = 32/7.
	if !almost(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.StdDev != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestCoV(t *testing.T) {
	s := Summary{Mean: 50, StdDev: 20}
	if !almost(s.CoV(), 0.4, 1e-12) {
		t.Fatalf("CoV = %v", s.CoV())
	}
	if !almost(s.CoVPercent(), 40, 1e-12) {
		t.Fatalf("CoV%% = %v", s.CoVPercent())
	}
	if (Summary{}).CoV() != 0 {
		t.Fatal("zero-mean CoV should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 10: 1.4}
	for p, want := range cases { //repro:allow nodeterm independent table-driven cases over a pure function
		if got := Percentile(xs, p); !almost(got, want, 1e-12) {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	if got := Median([]float64{9}); got != 9 {
		t.Errorf("median single = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty should be NaN")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestImbalanceFactor(t *testing.T) {
	if f := ImbalanceFactor([]float64{10, 20, 34.4}); !almost(f, 3.44, 1e-12) {
		t.Fatalf("imbalance = %v, want 3.44", f)
	}
	if f := ImbalanceFactor([]float64{5, 5, 5}); f != 1 {
		t.Fatalf("uniform imbalance = %v, want 1", f)
	}
	if f := ImbalanceFactor([]float64{7}); f != 1 {
		t.Fatalf("single imbalance = %v, want 1", f)
	}
	if f := ImbalanceFactor(nil); f != 1 {
		t.Fatalf("empty imbalance = %v, want 1", f)
	}
	if f := ImbalanceFactor([]float64{0, 3}); !math.IsInf(f, 1) {
		t.Fatalf("zero-fastest imbalance = %v, want +Inf", f)
	}
}

func TestImbalanceFactorAtLeastOneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			xs[i] = math.Abs(x) + 0.001 // positive times
		}
		return ImbalanceFactor(xs) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinningAndClamp(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	want := []int{3, 1, 1, 0, 3} // -1,0,1.9 | 2 | 5 | | 9.99,10,42
	for i, c := range want {
		if h.Counts[i] != c {
			t.Fatalf("bin %d = %d, want %d (all: %v)", i, h.Counts[i], c, h.Counts)
		}
	}
	if h.N != 8 {
		t.Fatalf("N = %d", h.N)
	}
	if !almost(h.BinWidth(), 2, 1e-12) {
		t.Fatalf("bin width = %v", h.BinWidth())
	}
	if !almost(h.BinCenter(0), 1, 1e-12) {
		t.Fatalf("bin center = %v", h.BinCenter(0))
	}
}

func TestHistogramOf(t *testing.T) {
	h := HistogramOf([]float64{1, 2, 3, 4}, 2)
	if h.N != 4 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0]+h.Counts[1] != 4 {
		t.Fatalf("counts = %v", h.Counts)
	}
	// Degenerate inputs must not panic.
	_ = HistogramOf(nil, 3)
	_ = HistogramOf([]float64{5, 5, 5}, 3)
}

func TestHistogramConservesMassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		h := HistogramOf(xs, 7)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == len(xs) && h.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	out := h.Render(10)
	if !strings.Contains(out, "##########") {
		t.Fatalf("expected a full-width bar in:\n%s", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("expected 2 lines, got:\n%s", out)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{3.5, -1, 0, 12, 7, 7, 2.25}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	got, want := a.Summary(), Summarize(xs)
	if got.N != want.N || !almost(got.Mean, want.Mean, 1e-12) ||
		!almost(got.StdDev, want.StdDev, 1e-9) ||
		got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("accumulator %+v != summarize %+v", got, want)
	}
}

func TestAccumulatorMatchesSummarizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		got, want := a.Summary(), Summarize(xs)
		tol := 1e-6 * (1 + math.Abs(want.StdDev))
		return got.N == want.N && almost(got.Mean, want.Mean, tol) &&
			almost(got.StdDev, want.StdDev, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if !almost(Speedup(480, 100), 4.8, 1e-12) {
		t.Fatal("Speedup")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("Speedup zero denominator")
	}
}
