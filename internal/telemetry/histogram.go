package telemetry

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets is the fixed bucket ladder of every latency
// histogram: a 1-2.5-5 decade ladder from 100µs to 30s. The ladder is
// part of the metrics schema — changing it invalidates recorded
// snapshots.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe from any number of goroutines. A value lands in the first
// bucket whose upper bound is >= the value (bounds are inclusive);
// values above the last bound land in the overflow bucket. Reads go
// through Snapshot, which derives count, sum and p50/p95/p99.
type Histogram struct {
	counts []atomic.Int64 // len(DefaultLatencyBuckets)+1; the last cell is the overflow bucket
	sum    atomic.Int64   // nanoseconds
}

// NewHistogram builds an empty histogram over DefaultLatencyBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(DefaultLatencyBuckets)+1)}
}

// Observe records one latency sample. Negative values clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	bounds := DefaultLatencyBuckets
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= d })
	h.counts[i].Add(1) // i == len(bounds) is the overflow bucket
	h.sum.Add(int64(d))
}

// Count returns the total number of samples (sum of all buckets).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile derives the q-quantile from the current bucket counts.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Snapshot captures the histogram as a consistent-enough point-in-time
// view: Count is defined as the sum of the captured bucket counts, so
// the bucket-sum identity holds in every snapshot by construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	bounds := DefaultLatencyBuckets
	s := HistogramSnapshot{
		BoundsUS: make([]int64, len(bounds)),
		Counts:   make([]int64, len(h.counts)),
	}
	for i, b := range bounds {
		s.BoundsUS[i] = b.Microseconds()
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumUS = time.Duration(h.sum.Load()).Microseconds()
	s.P50US = snapQuantile(bounds, s.Counts, s.Count, 0.50).Microseconds()
	s.P95US = snapQuantile(bounds, s.Counts, s.Count, 0.95).Microseconds()
	s.P99US = snapQuantile(bounds, s.Counts, s.Count, 0.99).Microseconds()
	return s
}

// HistogramSnapshot is the JSON form of one histogram: bucket upper
// bounds in microseconds, per-bucket counts (one extra trailing cell
// for the overflow bucket), and the derived totals and quantiles.
type HistogramSnapshot struct {
	BoundsUS []int64 `json:"bounds_us"`
	Counts   []int64 `json:"counts"`
	Count    int64   `json:"count"`
	SumUS    int64   `json:"sum_us"`
	P50US    int64   `json:"p50_us"`
	P95US    int64   `json:"p95_us"`
	P99US    int64   `json:"p99_us"`
}

// Quantile derives the q-quantile (q in [0,1]) from the snapshot by
// linear interpolation inside the bucket holding the target rank. The
// overflow bucket has no upper bound, so ranks landing there report
// the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return snapQuantile(boundsFromUS(s.BoundsUS), s.Counts, s.Count, q)
}

func boundsFromUS(us []int64) []time.Duration {
	out := make([]time.Duration, len(us))
	for i, u := range us {
		out[i] = time.Duration(u) * time.Microsecond
	}
	return out
}

func snapQuantile(bounds []time.Duration, counts []int64, total int64, q float64) time.Duration {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(bounds) {
				// Overflow bucket: unbounded above, report the ladder top.
				return bounds[len(bounds)-1]
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
