// Package stats provides the summary statistics the paper reports: mean,
// standard deviation, coefficient of variation ("covariance" in the paper's
// Table I), min/max, percentiles, histograms, and the imbalance factor
// (slowest/fastest writer time) defined in Section II.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds moments and extremes of a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Sum    float64
}

// CoV returns the coefficient of variation (stddev/mean) — what Table I of
// the paper labels "Covariance", reported there as a percentage.
func (s Summary) CoV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// CoVPercent returns CoV scaled to percent, matching the paper's tables.
func (s Summary) CoVPercent() float64 { return 100 * s.CoV() }

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// ImbalanceFactor returns the paper's per-IO-action imbalance metric: the
// ratio of the slowest to the fastest write time across all writers of one
// output operation. Returns 1 for empty or single-element input and +Inf if
// the fastest time is zero while others are not.
func ImbalanceFactor(writeTimes []float64) float64 {
	if len(writeTimes) < 2 {
		return 1
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, t := range writeTimes {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	if max == min {
		return 1
	}
	if min <= 0 {
		return math.Inf(1)
	}
	return max / min
}

// Histogram is a fixed-width binning of samples over [Lo, Hi); samples
// outside the range are clamped into the first/last bin so that no data is
// silently dropped (matching how the paper's bandwidth histograms are
// plotted over the observed range).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram builds a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// HistogramOf bins xs over their observed [min, max] range.
func HistogramOf(xs []float64, bins int) *Histogram {
	s := Summarize(xs)
	lo, hi := s.Min, s.Max
	if s.N == 0 {
		lo, hi = 0, 1
	}
	if hi <= lo {
		// Widen by a magnitude-aware amount so lo+span > lo even for huge
		// values where lo+1 rounds back to lo.
		span := 1.0
		if d := math.Abs(lo) * 1e-9; d > span {
			span = d
		}
		hi = lo + span
	}
	h := NewHistogram(lo, hi, bins)
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.N++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// Render draws an ASCII bar chart of the histogram, one line per bin, with
// the given maximum bar width in characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%12.1f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Accumulator collects samples incrementally with Welford's online
// algorithm, avoiding a second pass and catastrophic cancellation.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples recorded.
func (a *Accumulator) N() int { return a.n }

// Summary converts the accumulated state into a Summary.
func (a *Accumulator) Summary() Summary {
	s := Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max, Sum: a.sum}
	if a.n > 1 {
		s.StdDev = math.Sqrt(a.m2 / float64(a.n-1))
	}
	if a.n == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Speedup returns a/b, guarding against a zero denominator.
func Speedup(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}
