package experiments_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"tm3270/internal/experiments"
)

// TestBenchJSONParallelGolden asserts the batch runner's headline
// determinism guarantee at the serialization boundary: the marshaled
// bench report of a 4-way parallel run is byte-identical to the serial
// one. Anything order-dependent or state-leaking between concurrent
// runs — per-run state hidden in a shared spec, a racy counter,
// out-of-order aggregation — breaks this equality.
func TestBenchJSONParallelGolden(t *testing.T) {
	p := quick()
	serial, err := experiments.BenchJSON(p, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := experiments.BenchJSON(p, true, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.MarshalIndent(par, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		for i := range sb {
			if i >= len(pb) || sb[i] != pb[i] {
				lo := max(0, i-80)
				t.Fatalf("parallel bench JSON diverges from serial at byte %d:\nserial:   ...%s\nparallel: ...%s",
					i, sb[lo:min(len(sb), i+80)], pb[lo:min(len(pb), i+80)])
			}
		}
		t.Fatalf("parallel bench JSON is a strict prefix of serial (%d vs %d bytes)", len(pb), len(sb))
	}
}
