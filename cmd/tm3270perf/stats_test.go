package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(v, n=4) and
// statistics.median(v) for the same samples.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	cases := []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 2, 2, 7, 100, 3, 8}, 2, 3, 8},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.N != len(c.in) || !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want n=%d q1=%g median=%g q3=%g",
				c.in, s, len(c.in), c.q1, c.median, c.q3)
		}
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 {
		t.Errorf("summarize([4]) = %+v", s)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 {
		t.Error("summarize reordered its input")
	}
	if sp := summarize([]float64{9, 10, 11, 10}).spread(); !near(sp, 0.15) {
		t.Errorf("spread = %g, want 0.15", sp)
	}
}

func TestPartSummary(t *testing.T) {
	parts := [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {5, 1, 3}}
	sum := partSummary(parts, false)
	if sum.N != 13 || !near(sum.Median, 8.5) || !near(sum.Q1, 3.75) || !near(sum.Q3, 13.25) {
		t.Errorf("added = %+v, want n=13 median=8.5 q1=3.75 q3=13.25", sum)
	}
	avg := partSummary(parts, true)
	if avg.N != 13 || !near(avg.Median, 4.25) || !near(avg.Q1, 1.875) || !near(avg.Q3, 6.625) {
		t.Errorf("averaged = %+v, want n=13 median=4.25 q1=1.875 q3=6.625", avg)
	}
	if one := partSummary(parts[:1], true); one != summarize(parts[0]) {
		t.Errorf("one part averaged = %+v, want its own summary %+v", one, summarize(parts[0]))
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {40, 75}, {52, 75}, {99, 75}, {100, 90},
		{104, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The percentile the rule picks really has at least minBeyond samples
// above it on a sample of distinct values.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 52, 104, 1000, 8000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := highestPercentile(n)
		v := quantile(xs, p/100)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d beyond, want >= %d", n, p, v, beyond, minBeyond)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
