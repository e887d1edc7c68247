package sched_test

import (
	"runtime"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/sched"
	"tm3270/internal/workloads"
)

// checkScheduleAllocs fails t if one Schedule of p on tgt allocates
// more than 10% over the measured allocations or bytes. Scratch memory
// is allocated once per call, so a change that brings back per-op,
// per-cycle, per-instruction or per-block allocations fails here long
// before it shows in a timing. The race detector's instrumentation
// adds a few allocations, still inside the 10% margin.
func checkScheduleAllocs(t *testing.T, p *prog.Program, tgt config.Target, measured, measuredBytes float64) {
	t.Helper()
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
	t.Logf("Schedule of %s on %s: %.0f allocations, %.0f bytes", p.Name, tgt.Name, allocs, bytes)
	if limit := measured * 1.1; allocs > limit {
		t.Errorf("%.0f allocs per Schedule, want at most %.0f (%.0f measured + 10%%)", allocs, limit, measured)
	}
	if limit := measuredBytes * 1.1; bytes > limit {
		t.Errorf("%.0f bytes per Schedule, want at most %.0f (%.0f measured + 10%%)", bytes, limit, measuredBytes)
	}
}

// TestScheduleAllocs guards the scheduler's per-call allocations and
// bytes on the shape of one generated-program conformance unit, a
// 64-op progen program (seed 1) on config D: 47 allocations and 30,360
// bytes, most of the bytes Code.Instrs growing by doubling. The count
// is recorded as 48: the race detector adds five allocations here, and
// 48 + 10% is the tightest ceiling that still holds them.
func TestScheduleAllocs(t *testing.T) {
	tgt := config.ConfigD()
	p := progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64})
	checkScheduleAllocs(t, p, tgt, 48, 30360)
}

// TestScheduleAllocsLargeBlock guards the same on mpeg2_super at Full()
// sizes on config D, whose 7,121-op block has 1,536 memory operations
// in alias groups: 235 allocations and 4,276,375 bytes. The alias index
// is built in scratch slices sized once per call, so it adds no
// allocation per block or per memory operation.
func TestScheduleAllocsLargeBlock(t *testing.T) {
	w, err := workloads.ByName("mpeg2_super", workloads.Full())
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleAllocs(t, w.Prog, config.ConfigD(), 235, 4276375)
}
