package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prog"
	"tm3270/internal/sched"
)

func mustSchedule(t *testing.T, p *prog.Program, tgt config.Target) *sched.Code {
	t.Helper()
	c, err := sched.Schedule(p, tgt)
	if err != nil {
		t.Fatalf("schedule %s for %s: %v", p.Name, tgt.Name, err)
	}
	return c
}

// issueOf returns the instruction index and slot (1-based) of the first
// occurrence of opcode oc.
func issueOf(c *sched.Code, oc isa.Opcode) (int, int) {
	for i := range c.Instrs {
		for s := 0; s < 5; s++ {
			so := c.Instrs[i].Slots[s]
			if so.Op != nil && !so.Second && so.Op.Opcode == oc {
				return i, s + 1
			}
		}
	}
	return -1, 0
}

func TestLoadSlotRestriction(t *testing.T) {
	// Two independent loads: the TM3260 (2 loads/instr, slots 4+5) packs
	// them into one instruction; the TM3270 (1 load/instr, slot 5 only)
	// needs two.
	build := func() *prog.Program {
		b := prog.NewBuilder("twoloads")
		base, v1, v2 := b.Reg(), b.Reg(), b.Reg()
		b.Ld32D(v1, base, 0)
		b.Ld32D(v2, base, 4)
		return b.MustProgram()
	}
	c60 := mustSchedule(t, build(), config.TM3260())
	c70 := mustSchedule(t, build(), config.TM3270())

	count := func(c *sched.Code, i int) int {
		n := 0
		for s := 0; s < 5; s++ {
			so := c.Instrs[i].Slots[s]
			if so.Op != nil && !so.Second && so.Op.Info().IsLoad {
				n++
			}
		}
		return n
	}
	if got := count(c60, 0); got != 2 {
		t.Errorf("TM3260 first instr has %d loads, want 2 (Table 6: 2 loads/VLIW)", got)
	}
	if got := count(c70, 0); got != 1 {
		t.Errorf("TM3270 first instr has %d loads, want 1 (Table 6: 1 load/VLIW)", got)
	}
	// TM3270 loads must sit in slot 5.
	for i := range c70.Instrs {
		for s := 0; s < 5; s++ {
			so := c70.Instrs[i].Slots[s]
			if so.Op != nil && !so.Second && so.Op.Info().IsLoad && s+1 != 5 {
				t.Errorf("TM3270 load scheduled in slot %d, must be slot 5", s+1)
			}
		}
	}
}

func TestDualStoresUseSlots4And5(t *testing.T) {
	b := prog.NewBuilder("twostores")
	base, v := b.Reg(), b.Reg()
	b.St32D(base, 0, v)
	b.St32D(base, 4, v)
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	in := c.Instrs[0]
	if in.Slots[3].Op == nil || in.Slots[4].Op == nil {
		t.Fatalf("two independent stores should dual-issue in slots 4 and 5: %+v", in)
	}
	if !in.Slots[3].Op.Info().IsStore || !in.Slots[4].Op.Info().IsStore {
		t.Error("slots 4/5 do not both hold stores")
	}
}

func TestSuperOccupiesSlotPair(t *testing.T) {
	b := prog.NewBuilder("super")
	rs := b.Regs(6)
	b.SuperDualIMix(rs[0], rs[1], rs[2], rs[3], rs[4], rs[5])
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	in := c.Instrs[0]
	if in.Slots[1].Op == nil || in.Slots[2].Op == nil {
		t.Fatal("super op must occupy slots 2 and 3")
	}
	if in.Slots[1].Second || !in.Slots[2].Second {
		t.Error("slot pair halves mislabeled")
	}
	if in.Slots[1].Op != in.Slots[2].Op {
		t.Error("slot pair must reference the same operation")
	}
	if in.OpCount() != 1 {
		t.Errorf("OpCount = %d, want 1", in.OpCount())
	}
}

func TestRAWLatencySpacing(t *testing.T) {
	// A load feeding an add must be separated by the target's load
	// latency: 4 instructions on the TM3270, 3 on the TM3260.
	build := func() *prog.Program {
		b := prog.NewBuilder("raw")
		base, v, r := b.Reg(), b.Reg(), b.Reg()
		b.Ld32D(v, base, 0)
		b.Add(r, v, v)
		return b.MustProgram()
	}
	for _, tc := range []struct {
		tgt  config.Target
		want int
	}{{config.TM3270(), 4}, {config.TM3260(), 3}} {
		c := mustSchedule(t, build(), tc.tgt)
		li, _ := issueOf(c, isa.OpLD32D)
		ai, _ := issueOf(c, isa.OpIADD)
		if ai-li < tc.want {
			t.Errorf("%s: add issued %d instrs after load, want >= %d",
				tc.tgt.Name, ai-li, tc.want)
		}
	}
}

func TestMulLatencySpacing(t *testing.T) {
	b := prog.NewBuilder("mullat")
	x, y, r := b.Reg(), b.Reg(), b.Reg()
	b.Mul(x, y, y)
	b.Add(r, x, x)
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	mi, _ := issueOf(c, isa.OpIMUL)
	ai, _ := issueOf(c, isa.OpIADD)
	if ai-mi < 3 {
		t.Errorf("add %d instrs after mul, want >= 3", ai-mi)
	}
}

func TestJumpDelaySlots(t *testing.T) {
	// A minimal loop: the block must extend delay-slot instructions past
	// the jump, more on the TM3270 (5) than the TM3260 (3).
	build := func() *prog.Program {
		b := prog.NewBuilder("tiny")
		i, c := b.Reg(), b.Reg()
		b.Imm(i, 0)
		b.Label("loop")
		b.AddI(i, i, 1)
		b.LesI(c, i, 10)
		b.JmpT(c, "loop")
		return b.MustProgram()
	}
	for _, tc := range []struct {
		tgt config.Target
	}{{config.TM3270()}, {config.TM3260()}} {
		code := mustSchedule(t, build(), tc.tgt)
		ji, _ := issueOf(code, isa.OpJMPT)
		if ji < 0 {
			t.Fatal("no jump scheduled")
		}
		got := len(code.Instrs) - 1 - ji
		if got != tc.tgt.JumpDelaySlots {
			t.Errorf("%s: %d instructions after the jump, want exactly %d delay slots",
				tc.tgt.Name, got, tc.tgt.JumpDelaySlots)
		}
	}
}

func TestDrainRule(t *testing.T) {
	// A block ending in a long-latency op must be extended so the result
	// commits before any successor block issues.
	b := prog.NewBuilder("drain")
	x, y, z := b.Reg(), b.Reg(), b.Reg()
	b.Label("a")
	b.Mul(x, y, y) // latency 3
	b.Label("b")
	b.Add(z, x, x)
	p := b.MustProgram()
	c := mustSchedule(t, p, config.TM3270())
	// Block "a" holds one mul at cycle 0 with latency 3: it must be 3
	// instructions long so the value commits at block "b" entry.
	bIdx := c.Labels["b"]
	if bIdx < 3 {
		t.Errorf("block b starts at %d, drain rule requires >= 3", bIdx)
	}
}

func TestBranchUnitSlots(t *testing.T) {
	b := prog.NewBuilder("branchslot")
	b.Label("loop")
	g := b.Reg()
	b.NonZero(g, prog.One)
	b.JmpF(g, "loop")
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	_, slot := issueOf(c, isa.OpJMPF)
	if slot < 2 || slot > 4 {
		t.Errorf("jump in slot %d, branch units live in slots 2..4", slot)
	}
}

func TestShifterSlots(t *testing.T) {
	// Three independent shifts need at least two instructions: only two
	// shifter units (slots 1 and 2).
	b := prog.NewBuilder("shifts")
	r := b.Regs(6)
	b.AslI(r[0], r[3], 1)
	b.AslI(r[1], r[4], 2)
	b.AslI(r[2], r[5], 3)
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	inFirst := 0
	for s := 0; s < 5; s++ {
		if op := c.Instrs[0].Slots[s].Op; op != nil {
			if s+1 > 2 {
				t.Errorf("shift scheduled in slot %d, shifters live in slots 1 and 2", s+1)
			}
			inFirst++
		}
	}
	if inFirst > 2 {
		t.Errorf("%d shifts in the first instruction, only 2 shifter units exist", inFirst)
	}
}

func TestMemoryOrderPreserved(t *testing.T) {
	// A store followed by an aliasing load must not be reordered or
	// co-issued.
	b := prog.NewBuilder("st-ld")
	base, v, w := b.Reg(), b.Reg(), b.Reg()
	b.St32D(base, 0, v)
	b.Ld32D(w, base, 0)
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	si, _ := issueOf(c, isa.OpST32D)
	li, _ := issueOf(c, isa.OpLD32D)
	if li <= si {
		t.Errorf("aliasing load at %d not after store at %d", li, si)
	}
	// Disjoint displacements off the same base may co-issue.
	b2 := prog.NewBuilder("st-ld-disjoint")
	base2, v2, w2 := b2.Reg(), b2.Reg(), b2.Reg()
	b2.St32D(base2, 0, v2)
	b2.Ld32D(w2, base2, 64)
	c2 := mustSchedule(t, b2.MustProgram(), config.TM3270())
	si2, _ := issueOf(c2, isa.OpST32D)
	li2, _ := issueOf(c2, isa.OpLD32D)
	if li2 != si2 {
		t.Errorf("disjoint store/load at %d/%d, expected co-issue", si2, li2)
	}
	// Different non-zero MemGroups may co-issue even with unknown bases.
	b3 := prog.NewBuilder("groups")
	s3, d3, v3, w3 := b3.Reg(), b3.Reg(), b3.Reg(), b3.Reg()
	b3.St32D(d3, 0, v3).InGroup(2)
	b3.Ld32R(w3, s3, prog.Zero).InGroup(1)
	c3 := mustSchedule(t, b3.MustProgram(), config.TM3270())
	si3, _ := issueOf(c3, isa.OpST32D)
	li3, _ := issueOf(c3, isa.OpLD32R)
	if si3 != li3 {
		t.Errorf("grouped store/load at %d/%d, expected co-issue", si3, li3)
	}
}

func TestILPPacking(t *testing.T) {
	// Five independent ALU ops must pack into a single instruction.
	b := prog.NewBuilder("ilp")
	r := b.Regs(10)
	for i := 0; i < 5; i++ {
		b.Add(r[i], r[i+5], r[i+5])
	}
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	if got := c.Instrs[0].OpCount(); got != 5 {
		t.Errorf("first instruction packs %d ops, want 5", got)
	}
	if opi := c.OpsPerInstr(); opi < 4.9 {
		t.Errorf("OPI = %.2f, want ~5", opi)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	build := func() *prog.Program {
		b := prog.NewBuilder("det")
		r := b.Regs(8)
		b.Mul(r[0], r[4], r[5])
		b.Add(r[1], r[0], r[6])
		b.Xor(r[2], r[1], r[7])
		b.Ld32D(r[3], r[6], 0)
		return b.MustProgram()
	}
	a := mustSchedule(t, build(), config.TM3270())
	bb := mustSchedule(t, build(), config.TM3270())
	if len(a.Instrs) != len(bb.Instrs) {
		t.Fatalf("nondeterministic length %d vs %d", len(a.Instrs), len(bb.Instrs))
	}
	for i := range a.Instrs {
		for s := 0; s < 5; s++ {
			x, y := a.Instrs[i].Slots[s].Op, bb.Instrs[i].Slots[s].Op
			if (x == nil) != (y == nil) || (x != nil && x.Opcode != y.Opcode) {
				t.Fatalf("instr %d slot %d differs", i, s+1)
			}
		}
	}
}

func TestWARSuccessorIssuesNextCycle(t *testing.T) {
	// The redefinition of v may commit no earlier than the read of v
	// issues (weight 0), but the ready set is formed at the start of a
	// cycle, so the writer issues one cycle after the reader even though
	// slots are free in the reader's instruction.
	b := prog.NewBuilder("war")
	v, w, r, x := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Sub(r, v, w)
	b.Xor(v, x, w)
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	ri, _ := issueOf(c, isa.OpISUB)
	wi, _ := issueOf(c, isa.OpBITXOR)
	if ri != 0 || wi != 1 {
		t.Errorf("reader at %d, WAR writer at %d; want 0 and 1", ri, wi)
	}
}

func TestWritePortDeferredOpKeepsPriority(t *testing.T) {
	// Five results land on cycle 3: two muls issued at 0 and the three
	// adds a..c issued at 2. The equal-priority sub x, ready at 2 too
	// but later in program order, finds free slots there and no free
	// write port, so it waits. At cycle 3 it must still go ahead of the
	// lower-priority xors that became ready then: after two muls
	// issued at 1 and x, only two of them fit on commit cycle 4.
	b := prog.NewBuilder("wbports")
	in, in2 := b.Reg(), b.Reg()
	p0, p1 := b.Reg(), b.Reg()
	b.Add(p0, in, in2)
	b.Add(p1, p0, p0)
	for i := 0; i < 2; i++ {
		b.Mul(b.Reg(), in, in2)
		b.Mul(b.Reg(), p0, in2)
	}
	adds := b.Regs(3)
	for _, a := range adds {
		b.Add(a, p1, in)
	}
	x := b.Reg()
	b.Sub(x, p1, in2)
	for _, a := range adds {
		b.Xor(b.Reg(), a, in)
	}
	b.Or(b.Reg(), x, in) // gives x the adds' priority
	c := mustSchedule(t, b.MustProgram(), config.TM3270())

	xi, _ := issueOf(c, isa.OpISUB)
	if xi != 3 {
		t.Fatalf("sub issued at %d, want 3 (deferred one cycle by the write ports)", xi)
	}
	if n := c.Instrs[2].OpCount(); n != 3 {
		t.Errorf("instruction 2 holds %d ops, want the 3 adds with slots to spare", n)
	}
	var xors []int
	for i := range c.Instrs {
		for _, so := range c.Instrs[i].Slots {
			if so.Op != nil && so.Op.Opcode == isa.OpBITXOR {
				xors = append(xors, i)
			}
		}
	}
	if want := []int{3, 3, 4}; fmt.Sprint(xors) != fmt.Sprint(want) {
		t.Errorf("xors issued at %v, want %v", xors, want)
	}
}

func TestEqualPriorityIssuesInProgramOrder(t *testing.T) {
	// Two equal-priority loads compete for the TM3270's one load per
	// instruction at cycle 2. The ld32r became ready at cycle 0 and was
	// held back by higher-priority loads; the ld16d, earlier in program
	// order, only became ready at cycle 2. Program order decides.
	b := prog.NewBuilder("ties")
	base, p0, p1 := b.Reg(), b.Reg(), b.Reg()
	b.Add(p0, base, base)
	b.Add(p1, p0, p0)
	b.Ld16D(b.Reg(), p1, 0)
	b.Ld32R(b.Reg(), base, base)
	for i := 0; i < 2; i++ {
		v := b.Reg()
		b.Ld32D(v, base, int32(4*i))
		b.Add(b.Reg(), v, v)
	}
	c := mustSchedule(t, b.MustProgram(), config.TM3270())
	early, _ := issueOf(c, isa.OpLD16D)
	late, _ := issueOf(c, isa.OpLD32R)
	if early != 2 || late != 3 {
		t.Errorf("ld16d at %d, ld32r at %d; want 2 and 3", early, late)
	}
}

func TestScheduleGivesUpWhenNothingFits(t *testing.T) {
	// A target that validates but allows no load in any instruction can
	// never place a load: the scheduler must report it, not spin.
	tgt := config.TM3270()
	tgt.MaxLoadsPerInstr = 0
	if err := tgt.Validate(); err != nil {
		t.Fatalf("target must pass Validate for this test: %v", err)
	}
	b := prog.NewBuilder("noload")
	b.Ld32D(b.Reg(), b.Reg(), 0)
	_, err := sched.Schedule(b.MustProgram(), tgt)
	if err == nil || !strings.Contains(err.Error(), "scheduler did not converge") {
		t.Fatalf("err = %v, want the convergence guard", err)
	}
}

func TestGuardWAWThroughGuardedDef(t *testing.T) {
	// r = a; if g: r = b; use r  — the use must see the guarded def's
	// merge, so it must be ordered after both defs.
	b := prog.NewBuilder("gwaw")
	g, a2, c2, r, out := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mov(r, a2)
	b.Mov(r, c2).WithGuard(g)
	b.Add(out, r, r)
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	i1, _ := issueOf(code, isa.OpIADD) // first mov is iadd too; find all
	_ = i1
	// Find issue indices in program order by pointer identity instead.
	var issues []int
	for i := range code.Instrs {
		for s := 0; s < 5; s++ {
			so := code.Instrs[i].Slots[s]
			if so.Op != nil && !so.Second {
				issues = append(issues, i)
			}
		}
	}
	if len(issues) != 3 {
		t.Fatalf("expected 3 ops, got %d", len(issues))
	}
}

// TestVerifyAcceptsScheduler: Verify (an independent re-derivation of
// the exposed-pipeline constraints) must accept everything the
// scheduler produces, across targets and kernel shapes.
func TestVerifyAcceptsScheduler(t *testing.T) {
	builds := []func() *prog.Program{
		func() *prog.Program {
			b := prog.NewBuilder("chain")
			r := b.Regs(6)
			base := b.Reg()
			b.Ld32D(r[0], base, 0)
			b.Mul(r[1], r[0], r[0])
			b.Add(r[2], r[1], r[0])
			b.St32D(base, 4, r[2])
			b.FAdd(r[3], r[2], r[1])
			b.FDiv(r[4], r[3], r[1]) // 17-cycle latency stresses the drain
			b.Mov(r[5], r[4])
			return b.MustProgram()
		},
		func() *prog.Program {
			b := prog.NewBuilder("loopy")
			i, c, acc, base, v := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
			b.Imm(i, 0)
			b.Label("l")
			b.Ld32R(v, base, i)
			b.Add(acc, acc, v)
			b.AddI(i, i, 4)
			b.LesI(c, i, 64)
			b.JmpT(c, "l")
			return b.MustProgram()
		},
	}
	for _, build := range builds {
		for _, tgt := range []config.Target{config.TM3270(), config.TM3260()} {
			code := mustSchedule(t, build(), tgt)
			if err := sched.Verify(code); err != nil {
				t.Errorf("%s: %v", tgt.Name, err)
			}
		}
	}
}

// TestVerifyRejectsBadSchedule: hand-corrupt a schedule and check the
// verifier catches the latency violation.
func TestVerifyRejectsBadSchedule(t *testing.T) {
	b := prog.NewBuilder("bad")
	base, v, r := b.Reg(), b.Reg(), b.Reg()
	b.Ld32D(v, base, 0)
	b.Add(r, v, v)
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	// Move the dependent add right after the load (violating the 4-cycle
	// load latency).
	li, _ := issueOf(code, isa.OpLD32D)
	ai, as := issueOf(code, isa.OpIADD)
	op := code.Instrs[ai].Slots[as-1].Op
	code.Instrs[ai].Slots[as-1] = sched.SlotOp{}
	code.Instrs[li+1].Slots[0] = sched.SlotOp{Op: op}
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted a latency-violating schedule")
	}
}

// TestVerifyRejectsSwappedSlot: moving an op into a slot its unit is
// not wired to must be rejected, even though the dataflow stays legal.
func TestVerifyRejectsSwappedSlot(t *testing.T) {
	b := prog.NewBuilder("slotbad")
	x, y := b.Reg(), b.Reg()
	b.AslI(x, y, 3) // shifters live in slots 1 and 2
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	if err := sched.Verify(code); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	i, s := issueOf(code, isa.OpASLI)
	op := code.Instrs[i].Slots[s-1].Op
	code.Instrs[i].Slots[s-1] = sched.SlotOp{}
	code.Instrs[i].Slots[4] = sched.SlotOp{Op: op} // slot 5: no shifter
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted a shift in slot 5")
	}
}

// TestVerifyRejectsWAWReorder: pulling a short-latency overwrite ahead
// of a long-latency write to the same register inverts the commit
// order and must be rejected.
func TestVerifyRejectsWAWReorder(t *testing.T) {
	b := prog.NewBuilder("wawbad")
	x, y, z := b.Reg(), b.Reg(), b.Reg()
	b.Mul(x, y, y) // x commits at issue+3
	b.Mov(x, z)    // program-order overwrite, must commit later
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	if err := sched.Verify(code); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	mi, _ := issueOf(code, isa.OpIMUL)
	ai, as := issueOf(code, isa.OpIADD) // Mov lowers to iadd
	op := code.Instrs[ai].Slots[as-1].Op
	code.Instrs[ai].Slots[as-1] = sched.SlotOp{}
	code.Instrs[mi+1].Slots[0] = sched.SlotOp{Op: op} // commits before the mul
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted an inverted WAW commit order")
	}
}

// TestVerifyRejectsGuardHazard: guard registers are read operands too —
// a guarded op moved inside its guard producer's latency window must be
// rejected.
func TestVerifyRejectsGuardHazard(t *testing.T) {
	b := prog.NewBuilder("guardbad")
	g, x, y, z := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Mul(g, x, x) // guard produced with latency 3
	b.Mov(y, z).WithGuard(g)
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	if err := sched.Verify(code); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	mi, _ := issueOf(code, isa.OpIMUL)
	ai, as := issueOf(code, isa.OpIADD)
	op := code.Instrs[ai].Slots[as-1].Op
	code.Instrs[ai].Slots[as-1] = sched.SlotOp{}
	code.Instrs[mi+1].Slots[0] = sched.SlotOp{Op: op}
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted a guard read inside the producer's latency window")
	}
}

// TestVerifyChecksSecondSlotSources: a two-slot operation's extra
// sources (carried by the Second half of the pair) are hazard-checked
// like any other read. The producer feeds the super's fourth source,
// which only the extension half encodes.
func TestVerifyChecksSecondSlotSources(t *testing.T) {
	b := prog.NewBuilder("secondsrc")
	rs := b.Regs(7)
	b.Mul(rs[5], rs[6], rs[6])                                // latency-3 producer
	b.SuperDualIMix(rs[0], rs[1], rs[2], rs[3], rs[4], rs[5]) // rs[5] is Src[3]
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	if err := sched.Verify(code); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	mi, _ := issueOf(code, isa.OpIMUL)
	si, ss := issueOf(code, isa.OpSUPERDUALIMIX)
	if si-mi < 3 {
		t.Fatalf("scheduler placed the super %d instrs after its source producer, want >= 3", si-mi)
	}
	// Move the pair (both halves) inside the mul's latency window.
	op := code.Instrs[si].Slots[ss-1].Op
	code.Instrs[si].Slots[ss-1] = sched.SlotOp{}
	code.Instrs[si].Slots[ss] = sched.SlotOp{}
	code.Instrs[mi+1].Slots[1] = sched.SlotOp{Op: op}
	code.Instrs[mi+1].Slots[2] = sched.SlotOp{Op: op, Second: true}
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted an extension-half source read inside the producer's latency window")
	}
}

// TestVerifyRejectsBrokenPair: a two-slot operation stripped of its
// Second half is structurally invalid.
func TestVerifyRejectsBrokenPair(t *testing.T) {
	b := prog.NewBuilder("pairbad")
	rs := b.Regs(6)
	b.SuperDualIMix(rs[0], rs[1], rs[2], rs[3], rs[4], rs[5])
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	si, ss := issueOf(code, isa.OpSUPERDUALIMIX)
	code.Instrs[si].Slots[ss] = sched.SlotOp{} // drop the Second half
	if err := sched.Verify(code); err == nil {
		t.Error("verifier accepted a two-slot op without its second half")
	}
}

// TestVerifyRejectsDrainViolation: a long-latency op moved into the
// last instruction of a block must trip the drain rule.
func TestVerifyRejectsDrainViolation(t *testing.T) {
	b := prog.NewBuilder("drainbad")
	x, y := b.Reg(), b.Reg()
	b.Label("a")
	b.Mul(x, y, y)
	b.Label("b")
	b.Add(y, x, x)
	code := mustSchedule(t, b.MustProgram(), config.TM3270())
	if err := sched.Verify(code); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	// Shrink block a to one instruction: the mul can no longer drain.
	bIdx := code.Labels["b"]
	mulInstr := code.Instrs[0]
	bad := &sched.Code{
		Name:       code.Name,
		Target:     code.Target,
		Instrs:     append([]sched.Instr{mulInstr}, code.Instrs[bIdx:]...),
		Labels:     map[string]int{"a": 0, "b": 1},
		BlockStart: []int{0, 1},
	}
	if err := sched.Verify(bad); err == nil {
		t.Error("verifier accepted a drain violation")
	}
}

// TestVerifyDrainNamesLowestRegister: when several results of a block
// miss the drain rule, the error names the lowest register, on every
// run, whatever the slot order of their writers.
func TestVerifyDrainNamesLowestRegister(t *testing.T) {
	lo, hi, z := prog.VReg(2), prog.VReg(3), prog.VReg(4)
	mul := func(d prog.VReg) *prog.Op {
		return &prog.Op{Opcode: isa.OpIMUL, Guard: prog.One, Src: [4]prog.VReg{z, z}, Dest: [2]prog.VReg{d}}
	}
	var in sched.Instr
	writers := []*prog.Op{mul(hi), mul(lo)}
	mask := isa.DefaultSlots(isa.Info(isa.OpIMUL).Class)
	for s := 1; s <= 5 && len(writers) > 0; s++ {
		if mask.Has(s) {
			in.Slots[s-1] = sched.SlotOp{Op: writers[0]}
			writers = writers[1:]
		}
	}
	if len(writers) > 0 {
		t.Fatal("fewer than two multiplier slots")
	}
	code := &sched.Code{Name: "drainlow", Target: config.TM3270(), Instrs: []sched.Instr{in}, BlockStart: []int{0}}
	for run := 0; run < 20; run++ {
		err := sched.Verify(code)
		if err == nil || !strings.Contains(err.Error(), "drain rule") || !strings.Contains(err.Error(), lo.String()+" commits") {
			t.Fatalf("run %d: %v, want a drain-rule error naming %v", run, err, lo)
		}
	}
}
