package faults

import (
	"context"
	"testing"
)

// TestBusDelayIsTimingOnly: bus-latency spikes slow the run down but
// must never change functional state. The campaign does not sweep
// busdelay, so its runs are classified one by one.
func TestBusDelayIsTimingOnly(t *testing.T) {
	cw, err := setupWorkload("filter")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: BusDelay, Rate: 0.2, Delay: 300}
	events := 0
	for seed := int64(1); seed <= 3; seed++ {
		r, err := cw.runOne(context.Background(), spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome == DetectedTrap || r.Outcome == DetectedDivergence {
			t.Errorf("busdelay seed %d: %s (%s), want never detected", seed, r.Outcome, r.Detail)
		}
		events += r.Injected
	}
	if events == 0 {
		t.Error("no busdelay run injected a spike")
	}
}
