package binverify

import (
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/workloads"
)

// st32 builds a displacement store (address = S1 + imm, value = S2).
func st32(g, base isa.Reg, imm uint32, val isa.Reg) *encode.DecOp {
	return &encode.DecOp{Opcode: uint16(isa.OpST32D), Guard: g, S1: base, S2: val, Imm: imm}
}

func buf(lo, hi uint32) []mem.Region {
	return []mem.Region{{Name: "buf", Lo: lo, Hi: hi}}
}

func TestMemRangeProvablyOutside(t *testing.T) {
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0, r3)})
	rep := Verify(dec, &tgt, &Options{
		EntryValues: map[isa.Reg]uint32{r2: 0x100, r3: 7},
		MemMap:      buf(0x1000, 0x2000),
	})
	wantCheck(t, rep, CheckMemRange, Error, 0)
	wantOnly(t, rep, CheckMemRange)
}

func TestMemRangeGuardUnknownIsWarning(t *testing.T) {
	// The store's address is provably outside the map, but its guard
	// value is not static: the access is wrong whenever it executes, yet
	// it may never execute — a warning, not an error.
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{nil, nil, nil, st32(r4, r2, 0, r3)})
	rep := Verify(dec, &tgt, &Options{
		EntryValues: map[isa.Reg]uint32{r2: 0x100, r3: 7},
		MemMap:      buf(0x1000, 0x2000),
	})
	wantCheck(t, rep, CheckMemRange, Warn, 0)
}

func TestMemRangeInBoundsIsClean(t *testing.T) {
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0x40, r3)})
	rep := Verify(dec, &tgt, &Options{
		EntryValues: map[isa.Reg]uint32{r2: 0x1000, r3: 7},
		MemMap:      buf(0x1000, 0x2000),
	})
	if !rep.Clean() {
		t.Errorf("in-bounds store flagged: %v", checks(rep))
	}
}

func TestMemRangeOffWithoutMemMap(t *testing.T) {
	// Same provably-wild store, but no declared memory map: the check
	// has nothing to prove against and must stay silent.
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0, r3)})
	rep := Verify(dec, &tgt, &Options{EntryValues: map[isa.Reg]uint32{r2: 0x100, r3: 7}})
	if !rep.Clean() {
		t.Errorf("store flagged without a memory map: %v", checks(rep))
	}
}

func TestDeadGuard(t *testing.T) {
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{op(isa.OpIADD, r4, r2, r2, r10)})
	rep := Verify(dec, &tgt, &Options{EntryValues: map[isa.Reg]uint32{r4: 0, r2: 1}})
	wantCheck(t, rep, CheckDeadGuard, Warn, 0)
	wantOnly(t, rep, CheckDeadGuard)

	// Guard with the low bit set: the op executes, nothing to report.
	rep = Verify(dec, &tgt, &Options{EntryValues: map[isa.Reg]uint32{r4: 1, r2: 1}})
	if !rep.Clean() {
		t.Errorf("live guard flagged: %v", checks(rep))
	}
}

// unboundedLoop is a TM3260 (3 delay slots) loop whose trip count is
// guard-driven by a register with no static value: the back edge lands
// from node 4 (jump at node 1 + 3 delay slots) to the header at node 0.
func unboundedLoop() []encode.DecInstr {
	return stream(
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r2, r10)},
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(0))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
}

func TestLoopBoundUninferable(t *testing.T) {
	tgt := config.TM3260()
	rep := Verify(unboundedLoop(), &tgt, &Options{EntryValues: map[isa.Reg]uint32{r2: 1}})
	wantCheck(t, rep, CheckLoopBound, Warn, 0)
	wantOnly(t, rep, CheckLoopBound)
}

func TestLoopBoundAnnotation(t *testing.T) {
	tgt := config.TM3260()
	rep := Verify(unboundedLoop(), &tgt, &Options{
		EntryValues: map[isa.Reg]uint32{r2: 1},
		LoopBounds:  map[uint32]int{addrOf(0): 10},
	})
	if !rep.Clean() {
		t.Errorf("annotated loop still flagged: %v", checks(rep))
	}
	cb := WCET(unboundedLoop(), &tgt, &Options{
		EntryValues: map[isa.Reg]uint32{r2: 1},
		LoopBounds:  map[uint32]int{addrOf(0): 10},
	})
	if !cb.Bounded {
		t.Fatalf("annotated loop unbounded: %v", cb.Notes)
	}
	if len(cb.Loops) != 1 || cb.Loops[0].Bound != 10 || cb.Loops[0].Source != "annotation" {
		t.Errorf("loops = %+v, want one 10@annotation", cb.Loops)
	}
}

// TestRangeFixpointCapFallsBackToTop runs the range worklist with its
// cap lowered below what the loop needs: three instruction visits, half
// a trip. Cut short after one trip, the states would claim r2 == 1 at
// the compare, so r5 (r2 == 5) would look constantly false and the
// iadd it guards dead — a claim the converged analysis does not make. A
// capped pass must instead leave every node at top, report nothing from
// ranges and say so in the cycle bound's notes.
func TestRangeFixpointCapFallsBackToTop(t *testing.T) {
	tgt := config.TM3260()
	dec := stream(
		[5]*encode.DecOp{{Opcode: uint16(isa.OpIADDI), Guard: isa.R1, S1: r2, D: r2, Imm: 1}},
		[5]*encode.DecOp{
			{Opcode: uint16(isa.OpIEQLI), Guard: isa.R1, S1: r2, D: r5, Imm: 5},
			{Opcode: uint16(isa.OpILESI), Guard: isa.R1, S1: r2, D: r4, Imm: 16}},
		[5]*encode.DecOp{op(isa.OpIADD, r5, r2, r2, r10), jmp(isa.OpJMPT, r4, addrOf(0))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
	opts := &Options{EntryValues: map[isa.Reg]uint32{r2: 0}, EntryDefined: []isa.Reg{r2}}
	run := func(limit int) *verifier {
		v := newVerifier(dec, &tgt, opts)
		v.rangeCap = limit
		v.run()
		return v
	}
	capNote := func(cb *CycleBound) bool {
		for _, n := range cb.Notes {
			if strings.Contains(n, "without converging") {
				return true
			}
		}
		return false
	}

	full := run(maxRangeIterations)
	if !full.rep.Clean() {
		t.Fatalf("converged analysis reported %v", checks(full.rep))
	}
	if cb := full.cycleBound(); capNote(cb) || !cb.Bounded {
		t.Errorf("converged analysis: bounded=%v notes=%v", cb.Bounded, cb.Notes)
	}

	capped := run(3)
	if !capped.rangesCapped {
		t.Fatal("three instruction visits reached the fixpoint; the scenario no longer exercises the cap")
	}
	for c, st := range capped.ranges {
		if st != nil {
			t.Errorf("chain %d (leader %d) kept a range state after the cap", c, capped.leaders[c])
		}
	}
	if !capped.rep.Clean() {
		t.Errorf("capped analysis reported %v", checks(capped.rep))
	}
	if cb := capped.cycleBound(); !capNote(cb) {
		t.Errorf("capped analysis: notes = %v, want a non-convergence note", cb.Notes)
	}
}

func TestWCETStraightLine(t *testing.T) {
	tgt := config.TM3270()
	dec := stream(
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r2, r10)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)},
	)
	cb := WCET(dec, &tgt, nil)
	if !cb.Bounded {
		t.Fatalf("straight line unbounded: %v", cb.Notes)
	}
	if cb.Issue != 2 {
		t.Errorf("Issue = %d, want 2 (one per instruction)", cb.Issue)
	}
	if cb.Cycles != cb.Issue+cb.Fetch+cb.Data {
		t.Errorf("Cycles = %d, want Issue+Fetch+Data = %d",
			cb.Cycles, cb.Issue+cb.Fetch+cb.Data)
	}
	if cb.Data != 0 {
		t.Errorf("Data = %d, want 0 without memory operations", cb.Data)
	}
}

func TestWCETUnboundedLoop(t *testing.T) {
	tgt := config.TM3260()
	cb := WCET(unboundedLoop(), &tgt, nil)
	if cb.Bounded {
		t.Fatalf("guard-driven loop reported bounded: %d cycles", cb.Cycles)
	}
	if len(cb.Notes) == 0 {
		t.Error("unbounded result carries no explanatory note")
	}
}

// TestWCETInferredLoopAndFootprint pins the analysis pipeline end to
// end on a real kernel: memset's counted loop is inferred without
// annotation, the bound dominates the loop structure, and with the
// declared memory map the data side takes the cache-persistence path
// (every store address proven, footprint fits the TM3270 data cache).
func TestWCETInferredLoopAndFootprint(t *testing.T) {
	tgt := config.ConfigD()
	w, err := workloads.ByName("memset", workloads.Small())
	if err != nil {
		t.Fatal(err)
	}
	dec, opts, err := compileWorkload(t, w, tgt)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	cb := WCET(dec, &tgt, opts)
	if !cb.Bounded {
		t.Fatalf("memset unbounded: %v", cb.Notes)
	}
	if len(cb.Loops) != 1 || cb.Loops[0].Source != "inferred" || cb.Loops[0].Bound <= 0 {
		t.Fatalf("loops = %+v, want one inferred bound", cb.Loops)
	}
	persistent := false
	for _, n := range cb.Notes {
		if len(n) >= 14 && n[:14] == "data footprint" {
			persistent = true
		}
	}
	if !persistent {
		t.Errorf("data side fell back to per-access charges: notes = %v", cb.Notes)
	}
	// Without the semantic options the loop cannot be bounded.
	if cb := WCET(dec, &tgt, nil); cb.Bounded {
		t.Error("memset bounded without entry values")
	}
}
