package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	b := DefaultLatencyBuckets
	top := len(b) - 1
	h := NewHistogram()
	// Bounds are inclusive: a sample exactly on a bound lands in that
	// bound's bucket; one tick past it spills into the next.
	h.Observe(0)
	h.Observe(b[0])                   // bucket 0 (inclusive)
	h.Observe(b[0] + time.Nanosecond) // bucket 1
	h.Observe(b[top])                 // last finite bucket (inclusive)
	h.Observe(b[top] + 1)             // overflow
	h.Observe(time.Hour)              // overflow
	h.Observe(-time.Second)           // negative clamps to 0 → bucket 0

	s := h.Snapshot()
	want := make([]int64, len(b)+1)
	want[0], want[1], want[top], want[top+1] = 3, 1, 1, 2
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Histogram.Count() = %d, want 7", got)
	}
}

func TestHistogramBucketSumIdentity(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	s := h.Snapshot()
	if len(s.Counts) != len(s.BoundsUS)+1 {
		t.Fatalf("len(Counts) = %d, want len(BoundsUS)+1 = %d", len(s.Counts), len(s.BoundsUS)+1)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count || sum != 1000 {
		t.Errorf("bucket sum %d, Count %d, want both 1000", sum, s.Count)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 samples uniformly in (5ms, 10ms], the bucket bounded by the
	// ladder's 5ms and 10ms: p50 interpolates to the middle of that
	// bucket, p100 to its top.
	for i := 1; i <= 100; i++ {
		h.Observe(5*time.Millisecond + time.Duration(i)*50*time.Microsecond)
	}
	if p50 := h.Quantile(0.50); p50 != 7500*time.Microsecond {
		t.Errorf("p50 = %v, want 7.5ms (linear interpolation at half the bucket)", p50)
	}
	if p100 := h.Quantile(1); p100 != 10*time.Millisecond {
		t.Errorf("p100 = %v, want the bucket bound 10ms", p100)
	}

	// Push 100 more into the overflow bucket: quantiles landing there
	// report the last finite bound, never invent values above the ladder.
	for i := 0; i < 100; i++ {
		h.Observe(time.Hour)
	}
	top := DefaultLatencyBuckets[len(DefaultLatencyBuckets)-1]
	if p99 := h.Quantile(0.99); p99 != top {
		t.Errorf("overflow p99 = %v, want ladder top %v", p99, top)
	}

	// Degenerate inputs.
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", q)
	}
	if q := NewHistogram().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	h.Observe(3 * time.Millisecond)
	h.Observe(700 * time.Millisecond)
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 2 || len(s.Counts) != len(s.BoundsUS)+1 {
		t.Errorf("round-trip snapshot malformed: count=%d counts=%d bounds=%d",
			s.Count, len(s.Counts), len(s.BoundsUS))
	}
	if q := s.Quantile(0.5); q <= 0 {
		t.Errorf("round-trip quantile = %v, want > 0", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != workers*per || s.Count != workers*per {
		t.Errorf("concurrent observe: bucket sum %d, count %d, want %d", sum, s.Count, workers*per)
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	r.Histogram("test.latency.stage", h)
	h.Observe(time.Millisecond)
	snaps := r.Histograms()
	if s, ok := snaps["test.latency.stage"]; !ok || s.Count != 1 {
		t.Errorf("registry snapshot = %+v, want test.latency.stage with count 1", snaps)
	}
	if names := r.HistogramNames(); len(names) != 1 || names[0] != "test.latency.stage" {
		t.Errorf("HistogramNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate histogram registration did not panic")
		}
	}()
	r.Histogram("test.latency.stage", NewHistogram())
}
