package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one sample of measurements: its size, median and
// quartiles. The same helpers serve passes, requests and campaign units.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes a sample's median and quartiles. Quartiles use the
// "exclusive" method of Python's statistics.quantiles, so the spreads
// this program reports are the ones an external checker computes from
// the same values.
func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
	}
}

// partSummary summarizes samples taken per part of a pass: the parts'
// medians and quartiles added up, for the time of a whole pass, or
// averaged, for a typical value. N counts every sample.
func partSummary(parts [][]float64, average bool) summary {
	var s summary
	for _, xs := range parts {
		p := summarize(xs)
		s.N += p.N
		s.Median += p.Median
		s.Q1 += p.Q1
		s.Q3 += p.Q3
	}
	if k := float64(len(parts)); average && k > 0 {
		s.Median, s.Q1, s.Q3 = s.Median/k, s.Q1/k, s.Q3/k
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 < q < 1) of an ascending sample by
// the exclusive method: the rank q·(n+1), clamped to the interpolation
// range [1, n-1] exactly as Python clamps it. An empty sample reads 0.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := pos - float64(j)
	return s[j-1] + (s[j]-s[j-1])*delta
}

// tailPercentiles are the latency percentiles a run may report, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest percentile in tailPercentiles
// that leaves at least minBeyond of n samples beyond it, or 0 when even
// the median does not.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// millis converts durations to float milliseconds for summarizing.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
