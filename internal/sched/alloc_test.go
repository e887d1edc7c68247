package sched_test

import (
	"runtime"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/progen"
	"tm3270/internal/sched"
)

// TestScheduleAllocs guards the scheduler's per-call allocations and
// bytes on the shape of one generated-program conformance unit, a
// 64-op progen program (seed 1) on config D: 93 allocations and 30,464
// bytes, most of the bytes Code.Instrs growing by doubling. Scratch
// memory is allocated once per call, so a change that brings back
// per-op, per-cycle or per-instruction allocations fails here long
// before it shows in a timing. The race detector's instrumentation
// adds a few allocations, still inside the 10% margin.
func TestScheduleAllocs(t *testing.T) {
	const measured, measuredBytes = 93, 30464
	tgt := config.ConfigD()
	p := progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64})
	schedule := func() {
		if _, err := sched.Schedule(p, tgt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, schedule)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		schedule()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Schedule of a 64-op progen program on D: %.0f allocations, %.0f bytes", allocs, bytes)
	if limit := measured * 1.1; allocs > limit {
		t.Errorf("%.0f allocs per Schedule, want at most %.0f (%d measured + 10%%)", allocs, limit, measured)
	}
	if limit := measuredBytes * 1.1; bytes > limit {
		t.Errorf("%.0f bytes per Schedule, want at most %.0f (%d measured + 10%%)", bytes, limit, measuredBytes)
	}
}
