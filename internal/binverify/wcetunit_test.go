package binverify

import (
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
)

func TestSatArithmetic(t *testing.T) {
	if got := satAdd(1, 2); got != 3 {
		t.Errorf("satAdd(1,2) = %d", got)
	}
	if got := satAdd(satCycles, satCycles); got != satCycles {
		t.Errorf("satAdd did not saturate: %d", got)
	}
	if got := satMul(3, 4); got != 12 {
		t.Errorf("satMul(3,4) = %d", got)
	}
	if got := satMul(0, satCycles); got != 0 {
		t.Errorf("satMul(0,x) = %d", got)
	}
	if got := satMul(satCycles, 2); got != satCycles {
		t.Errorf("satMul did not saturate: %d", got)
	}
}

// TestLinesFit pins the cache-fit check both cycle-bound terms share,
// on a 4-set, 2-way cache: line l maps to set l%4, distinct lines count
// once however the spans overlap or are ordered, and a set fits with
// exactly Ways lines but not with one more.
func TestLinesFit(t *testing.T) {
	cache := config.CacheConfig{SizeBytes: 4 * 2 * 64, LineBytes: 64, Ways: 2}
	for _, c := range []struct {
		name  string
		spans []lineSpan
		lines int64 // checked when the spans fit
		fits  bool
	}{
		{"none", nil, 0, true},
		{"overlapping", []lineSpan{{0, 3}, {2, 5}}, 6, true},
		{"nested", []lineSpan{{0, 7}, {2, 3}}, 8, true},
		{"adjacent", []lineSpan{{0, 1}, {2, 3}}, 4, true},
		{"duplicate", []lineSpan{{1, 1}, {1, 1}, {1, 1}}, 1, true},
		{"out of order", []lineSpan{{6, 7}, {3, 5}, {0, 4}}, 8, true},
		{"set at Ways", []lineSpan{{4, 4}, {0, 0}}, 2, true},
		{"set at Ways+1", []lineSpan{{8, 8}, {0, 0}, {4, 4}}, 0, false},
		{"wide span over Ways", []lineSpan{{0, 8}}, 0, false},
	} {
		lines, fits := linesFit(c.spans, cache)
		if fits != c.fits || fits && lines != c.lines {
			t.Errorf("%s: linesFit = %d, %v; want %d, %v", c.name, lines, fits, c.lines, c.fits)
		}
	}
}

// countedLoop is a TM3260 counted loop: iaddi advances r2 by 1, ilesi
// compares it against the limit, and the back-edge jump (3 delay slots,
// so the edge lands from node 5) re-enters the header at node 0.
func countedLoop(limit uint32) []encode.DecInstr {
	return stream(
		[5]*encode.DecOp{{Opcode: uint16(isa.OpIADDI), Guard: isa.R1, S1: r2, D: r2, Imm: 1}},
		[5]*encode.DecOp{{Opcode: uint16(isa.OpILESI), Guard: isa.R1, S1: r2, D: r4, Imm: limit}},
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(0))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
}

func TestLoopBoundInferredVsAnnotation(t *testing.T) {
	tgt := config.TM3260()
	dec := countedLoop(16)
	opts := func(bounds map[uint32]int) *Options {
		return &Options{
			EntryValues:  map[isa.Reg]uint32{r2: 0},
			EntryDefined: []isa.Reg{r2},
			LoopBounds:   bounds,
		}
	}

	// Pure inference: 16 continues observed pre-update, plus the final
	// failing test -> 17 header entries.
	cb := WCET(dec, &tgt, opts(nil))
	if !cb.Bounded || len(cb.Loops) != 1 {
		t.Fatalf("inferred: bounded=%v loops=%+v notes=%v", cb.Bounded, cb.Loops, cb.Notes)
	}
	if cb.Loops[0].Bound != 17 || cb.Loops[0].Source != "inferred" {
		t.Errorf("inferred bound = %d (%s), want 17 (inferred)",
			cb.Loops[0].Bound, cb.Loops[0].Source)
	}

	// A tighter annotation is a stronger promise and wins.
	cb = WCET(dec, &tgt, opts(map[uint32]int{addrOf(0): 10}))
	if cb.Loops[0].Bound != 10 || cb.Loops[0].Source != "annotation" {
		t.Errorf("tight annotation: bound = %d (%s), want 10 (annotation)",
			cb.Loops[0].Bound, cb.Loops[0].Source)
	}

	// A looser annotation never weakens a sound inference.
	cb = WCET(dec, &tgt, opts(map[uint32]int{addrOf(0): 100}))
	if cb.Loops[0].Bound != 17 || cb.Loops[0].Source != "inferred" {
		t.Errorf("loose annotation: bound = %d (%s), want 17 (inferred)",
			cb.Loops[0].Bound, cb.Loops[0].Source)
	}
}

// irreducibleCycle builds a cycle with two distinct entries (nodes 5 and
// 6), so neither dominates the cycle: the first jump (edge from node 3)
// enters at 6, the second (edge from node 7) closes the cycle at 5,
// which does not dominate node 7.
func irreducibleCycle() []encode.DecInstr {
	return stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(6))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r5, addrOf(5))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
}

func TestIrreducibleCycle(t *testing.T) {
	tgt := config.TM3260()
	cb := WCET(irreducibleCycle(), &tgt, nil)
	if cb.Bounded {
		t.Fatalf("irreducible cycle reported bounded: %d cycles", cb.Cycles)
	}
	if len(cb.Notes) == 0 || !strings.Contains(cb.Notes[0], "irreducible") {
		t.Errorf("notes = %v, want an irreducible-control-flow note", cb.Notes)
	}

	rep := Verify(irreducibleCycle(), &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{},
		EntryDefined: []isa.Reg{r4, r5},
	})
	found := false
	for _, d := range rep.Diags {
		if d.Check == CheckLoopBound && strings.Contains(d.Msg, "irreducible") {
			found = true
		}
	}
	if !found {
		t.Errorf("no irreducible loop-bound diagnostic: %v", checks(rep))
	}
}

// TestWCETPerAccessFallback drives the data side through the
// per-access path: one load's address is statically unknown, so the
// cache-persistence argument fails and every access is charged
// individually (the known-address store exactly, the unknown load at
// two lines plus the region-prefetch fill, allocd as eviction only).
func TestWCETPerAccessFallback(t *testing.T) {
	tgt := config.ConfigD()
	dec := stream(
		[5]*encode.DecOp{nil, nil, nil,
			st32(isa.R1, r2, 0, r3),
			op(isa.OpLD32D, isa.R1, r4, 0, r10)},
		[5]*encode.DecOp{nil, nil, nil,
			{Opcode: uint16(isa.OpALLOCD), Guard: isa.R1, S1: r2, Imm: 0x40}},
	)
	cb := WCET(dec, &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{r2: 0x1000, r3: 7},
		EntryDefined: []isa.Reg{r2, r3, r4},
	})
	if !cb.Bounded {
		t.Fatalf("unbounded: %v", cb.Notes)
	}
	if cb.Data <= 0 {
		t.Errorf("Data = %d, want positive per-access charges", cb.Data)
	}
	for _, n := range cb.Notes {
		if strings.HasPrefix(n, "data footprint") {
			t.Errorf("persistence argument succeeded with an unknown load address: %v", cb.Notes)
		}
	}
}

// TestWCETTinyCacheFallbacks shrinks both caches below the kernel so
// the persistence arguments fail on associativity: the three stores'
// lines collide in one dcache set, and the code spans more icache lines
// than one way holds, forcing the per-instruction fetch charge.
func TestWCETTinyCacheFallbacks(t *testing.T) {
	tgt := config.ConfigD()
	tgt.ICache = config.CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1}
	tgt.DCache = config.CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1,
		WriteMiss: tgt.DCache.WriteMiss}

	filler := func(d isa.Reg) [5]*encode.DecOp {
		return [5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, d)}
	}
	dec := stream(
		[5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0, r3)},
		[5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0x80, r3)},
		[5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0x100, r3)},
		filler(r10), filler(r11), filler(r12), filler(r13),
		filler(r14), filler(r15), filler(r10),
	)
	cb := WCET(dec, &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{r2: 0, r3: 7},
		EntryDefined: []isa.Reg{r2, r3},
	})
	if !cb.Bounded {
		t.Fatalf("unbounded: %v", cb.Notes)
	}
	fetchFallback := false
	for _, n := range cb.Notes {
		if strings.Contains(n, "icache associativity") {
			fetchFallback = true
		}
		if strings.HasPrefix(n, "data footprint") {
			t.Errorf("persistence argument succeeded past a 1-way 2-set dcache: %v", cb.Notes)
		}
	}
	if !fetchFallback {
		t.Errorf("fetch side used the line-persistence model: notes = %v", cb.Notes)
	}
	if cb.Data <= 0 || cb.Fetch <= 0 {
		t.Errorf("Data = %d, Fetch = %d, want positive fallback charges", cb.Data, cb.Fetch)
	}
}

// TestMemRangeIndexedInBounds pins the indexed-addressing (base +
// index register) path of the address evaluator.
func TestMemRangeIndexedInBounds(t *testing.T) {
	tgt := config.ConfigD()
	dec := stream(
		[5]*encode.DecOp{nil, nil, nil, nil, op(isa.OpLD32R, isa.R1, r2, r3, r10)},
	)
	rep := Verify(dec, &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{r2: 0x1000, r3: 0x10},
		EntryDefined: []isa.Reg{r2, r3},
		MemMap:       buf(0x1000, 0x2000),
	})
	if !rep.Clean() {
		t.Errorf("in-bounds indexed load flagged: %v", checks(rep))
	}
}

// TestMemRangeWrapNormalization pins the unsigned normalization of
// address intervals: a negative displacement result names the high half
// of the address space, and a sum past 2^32 wraps back down.
func TestMemRangeWrapNormalization(t *testing.T) {
	tgt := config.ConfigD()

	// 0 + (-16) = 0xfffffff0: provably outside the declared buffer.
	dec := stream(
		[5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0xfffffff0, r3)},
	)
	rep := Verify(dec, &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{r2: 0, r3: 7},
		EntryDefined: []isa.Reg{r2, r3},
		MemMap:       buf(0x1000, 0x2000),
	})
	wantCheck(t, rep, CheckMemRange, Error, 0)

	// 0xfffffff0 + 0x20 wraps to 0x10: inside a low region.
	dec = stream(
		[5]*encode.DecOp{nil, nil, nil, st32(isa.R1, r2, 0x20, r3)},
	)
	rep = Verify(dec, &tgt, &Options{
		EntryValues:  map[isa.Reg]uint32{r2: 0xfffffff0, r3: 7},
		EntryDefined: []isa.Reg{r2, r3},
		MemMap:       buf(0, 0x100),
	})
	if !rep.Clean() {
		t.Errorf("wrapped-down store flagged: %v", checks(rep))
	}
}
