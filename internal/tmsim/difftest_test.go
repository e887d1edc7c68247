package tmsim_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/tmsim"
)

// runBoth executes p on the reference interpreter and on the machine
// model for the given target, and requires identical register results
// and memory images. It returns the machine for timing inspection.
func runBoth(t *testing.T, p *prog.Program, target config.Target,
	init map[prog.VReg]uint32, outs []prog.VReg, memInit func(*mem.Func)) *tmsim.Machine {
	t.Helper()

	// Reference.
	refMem := mem.NewFunc()
	if memInit != nil {
		memInit(refMem)
	}
	in := prog.NewInterp(p, refMem)
	in.MaxOps = 50_000_000
	for v, val := range init {
		in.SetReg(v, val)
	}
	if err := in.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}

	// Machine.
	code, err := sched.Schedule(p, target)
	if err != nil {
		t.Fatalf("schedule for %s: %v", target.Name, err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	simMem := mem.NewFunc()
	if memInit != nil {
		memInit(simMem)
	}
	enc, err := encode.Encode(code, rm, tmsim.CodeBase)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	m := tmsim.Load(code, rm, enc, simMem)
	for v, val := range init {
		m.SetReg(v, val)
	}
	if err := m.RunContext(context.Background()); err != nil {
		t.Fatalf("run on %s: %v", target.Name, err)
	}

	for _, v := range outs {
		if got, want := m.Reg(v), in.Reg(v); got != want {
			t.Errorf("%s on %s: out reg %v = %#x, machine disagrees with reference %#x",
				p.Name, target.Name, v, got, want)
		}
	}
	if addr, diff := mem.Diff(refMem, simMem, nil); diff {
		t.Errorf("%s on %s: memory diverges at %#x: ref %#x sim %#x",
			p.Name, target.Name, addr, refMem.ByteAt(addr), simMem.ByteAt(addr))
	}
	if m.Stats.Cycles < m.Stats.Instrs {
		t.Errorf("%s: cycles %d < instrs %d", p.Name, m.Stats.Cycles, m.Stats.Instrs)
	}
	return m
}

func targets() []config.Target {
	return []config.Target{config.TM3270(), config.TM3260(), config.ConfigB(), config.ConfigC()}
}

func TestSumLoopAllTargets(t *testing.T) {
	for _, tgt := range targets() {
		b := prog.NewBuilder("sum")
		base, n, sum := b.Reg(), b.Reg(), b.Reg()
		i, v, cond, off := b.Reg(), b.Reg(), b.Reg(), b.Reg()
		b.Imm(sum, 0)
		b.Imm(i, 0)
		b.Label("loop")
		b.AslI(off, i, 2)
		b.Ld32R(v, base, off)
		b.Add(sum, sum, v)
		b.AddI(i, i, 1)
		b.Les(cond, i, n)
		b.JmpT(cond, "loop")
		p := b.MustProgram()

		m := runBoth(t, p, tgt,
			map[prog.VReg]uint32{base: 0x2000, n: 64},
			[]prog.VReg{sum, i},
			func(f *mem.Func) {
				for k := 0; k < 64; k++ {
					f.Store(0x2000+uint32(4*k), 4, uint64(k*k+7))
				}
			})
		if m.Stats.Taken != 63 {
			t.Errorf("%s: taken jumps = %d, want 63", tgt.Name, m.Stats.Taken)
		}
	}
}

func TestGuardedDiamond(t *testing.T) {
	// if (x > y) r = x - y else r = y - x, with both guarded ops and a
	// branchy version, checked on every target.
	for _, tgt := range targets() {
		b := prog.NewBuilder("diamond")
		x, y, g, ng, r1, r2 := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
		b.Gtr(g, x, y)
		b.IsZero(ng, g)
		b.Sub(r1, x, y).WithGuard(g)
		b.Sub(r1, y, x).WithGuard(ng)
		// Branchy version.
		b.Imm(r2, 0)
		b.JmpF(g, "else")
		b.Sub(r2, x, y)
		b.Jmp("done")
		b.Label("else")
		b.Sub(r2, y, x)
		b.Label("done")
		p := b.MustProgram()

		for _, xy := range [][2]uint32{{10, 3}, {3, 10}, {7, 7}} {
			runBoth(t, p, tgt,
				map[prog.VReg]uint32{x: xy[0], y: xy[1]},
				[]prog.VReg{r1, r2}, nil)
		}
	}
}

func TestMemcpyNonAligned(t *testing.T) {
	for _, tgt := range targets() {
		b := prog.NewBuilder("memcpy_na")
		src, dst, n := b.Reg(), b.Reg(), b.Reg()
		i, v, c := b.Reg(), b.Reg(), b.Reg()
		b.Imm(i, 0)
		b.Label("loop")
		b.Ld32R(v, src, i).InGroup(1)
		b.St32D(dst, 0, v).InGroup(2)
		b.AddI(dst, dst, 4)
		b.AddI(i, i, 4)
		b.ULes(c, i, n)
		b.JmpT(c, "loop")
		p := b.MustProgram()

		runBoth(t, p, tgt,
			// Deliberately non-aligned source and destination.
			map[prog.VReg]uint32{src: 0x3001, dst: 0x7003, n: 256},
			[]prog.VReg{dst},
			func(f *mem.Func) {
				for k := uint32(0); k < 300; k++ {
					f.SetByte(0x3000+k, byte(k*17+3))
				}
			})
	}
}

func TestSuperOpsOnTM3270(t *testing.T) {
	b := prog.NewBuilder("supers")
	a1, a2, a3, a4 := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	d1, d2, l1, l2, sad := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	base := b.Reg()
	b.SuperDualIMix(d1, d2, a1, a2, a3, a4)
	b.SuperLd32R(l1, l2, base, prog.Zero)
	b.SuperUME8UU(sad, a1, a2, a3, a4)
	p := b.MustProgram()

	runBoth(t, p, config.TM3270(),
		map[prog.VReg]uint32{
			a1: 0x00020003, a2: 0x00050007, a3: 0x000b000d, a4: 0x00110013,
			base: 0x4000,
		},
		[]prog.VReg{d1, d2, l1, l2, sad},
		func(f *mem.Func) {
			f.Store(0x4000, 8, 0x1122334455667788)
		})

	// The TM3260 must refuse to schedule TM3270-only operations.
	if _, err := sched.Schedule(p, config.TM3260()); err == nil {
		t.Error("TM3260 accepted TM3270-only super operations")
	}
}

func TestLdFrac8Kernel(t *testing.T) {
	b := prog.NewBuilder("frac")
	base, frac, out := b.Reg(), b.Reg(), b.Reg()
	b.LdFrac8(out, base, frac)
	p := b.MustProgram()
	for f := uint32(0); f < 16; f += 5 {
		runBoth(t, p, config.TM3270(),
			map[prog.VReg]uint32{base: 0x5002, frac: f},
			[]prog.VReg{out},
			func(m *mem.Func) {
				m.WriteBytes(0x5000, []byte{1, 9, 17, 33, 65, 129, 255})
			})
	}
}

func TestNestedLoops(t *testing.T) {
	// A 2D sweep: out[i] = sum over j of (i*j), exercising nested
	// control flow and loop-carried values on every target.
	for _, tgt := range targets() {
		b := prog.NewBuilder("nested")
		out, acc := b.Reg(), b.Reg()
		i, j, pr, ci, cj, addr := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
		b.Imm(i, 0)
		b.Label("outer")
		b.Imm(acc, 0)
		b.Imm(j, 0)
		b.Label("inner")
		b.Mul(pr, i, j)
		b.Add(acc, acc, pr)
		b.AddI(j, j, 1)
		b.LesI(cj, j, 8)
		b.JmpT(cj, "inner")
		b.AslI(addr, i, 2)
		b.Add(addr, addr, out)
		b.St32D(addr, 0, acc)
		b.AddI(i, i, 1)
		b.LesI(ci, i, 6)
		b.JmpT(ci, "outer")
		p := b.MustProgram()

		runBoth(t, p, tgt, map[prog.VReg]uint32{out: 0x9000}, []prog.VReg{i, acc}, nil)
	}
}

// TestRandomStraightLine cross-checks scheduler + machine against the
// reference on randomly generated straight-line integer programs with
// guards. This is the main property test for schedule correctness
// (latency honoring, slot constraints, WAR/WAW discipline).
func TestRandomStraightLine(t *testing.T) {
	ops := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpIMIN, isa.OpIMAX, isa.OpBITAND,
		isa.OpBITOR, isa.OpBITXOR, isa.OpIMUL, isa.OpIMULM, isa.OpIFIR16,
		isa.OpQUADAVG, isa.OpDSPIADD, isa.OpDSPIDUALADD, isa.OpUME8UU,
		isa.OpASL, isa.OpLSR, isa.OpICLZ, isa.OpIGTR, isa.OpIEQL,
		isa.OpFUNSHIFT1, isa.OpPACK16LSB, isa.OpMERGEMSB,
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := prog.NewBuilder("rand")
		pool := make([]prog.VReg, 12)
		init := map[prog.VReg]uint32{}
		for i := range pool {
			pool[i] = b.Reg()
			init[pool[i]] = rng.Uint32()
		}
		outs := make([]prog.VReg, 0, len(pool))
		for n := 0; n < 60; n++ {
			oc := ops[rng.Intn(len(ops))]
			info := isa.Info(oc)
			op := prog.Op{Opcode: oc}
			for s := 0; s < info.NSrc; s++ {
				op.Src[s] = pool[rng.Intn(len(pool))]
			}
			op.Dest[0] = pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				op.Guard = pool[rng.Intn(len(pool))]
			}
			b.Emit(op)
		}
		outs = append(outs, pool...)
		p := b.MustProgram()
		for _, tgt := range targets() {
			runBoth(t, p, tgt, init, outs, nil)
		}
	}
}

// TestRandomLoopKernels adds control flow: random loop bodies with a
// deterministic counter, cross-checked on all targets.
func TestRandomLoopKernels(t *testing.T) {
	ops := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpBITXOR, isa.OpIMUL, isa.OpQUADAVG,
		isa.OpASL, isa.OpPACK16MSB, isa.OpDSPIDUALSUB, isa.OpROL,
	}
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := prog.NewBuilder("randloop")
		pool := make([]prog.VReg, 8)
		init := map[prog.VReg]uint32{}
		for i := range pool {
			pool[i] = b.Reg()
			init[pool[i]] = rng.Uint32()
		}
		cnt, cond := b.Reg(), b.Reg()
		b.Imm(cnt, 0)
		b.Label("loop")
		for n := 0; n < 12; n++ {
			oc := ops[rng.Intn(len(ops))]
			info := isa.Info(oc)
			op := prog.Op{Opcode: oc}
			for s := 0; s < info.NSrc; s++ {
				op.Src[s] = pool[rng.Intn(len(pool))]
			}
			op.Dest[0] = pool[rng.Intn(len(pool))]
			b.Emit(op)
		}
		b.AddI(cnt, cnt, 1)
		b.LesI(cond, cnt, 10)
		b.JmpT(cond, "loop")
		p := b.MustProgram()
		for _, tgt := range targets() {
			runBoth(t, p, tgt, init, pool, nil)
		}
	}
}

// TestTraceOutput checks the issue-trace facility.
func TestTraceOutput(t *testing.T) {
	b := prog.NewBuilder("traced")
	x, y := b.Reg(), b.Reg()
	b.Imm(x, 1)
	b.Add(y, x, x)
	p := b.MustProgram()
	code, err := sched.Schedule(p, config.TM3270())
	if err != nil {
		t.Fatal(err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := encode.Encode(code, rm, tmsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := tmsim.Load(code, rm, enc2, mem.NewFunc())
	var buf strings.Builder
	m.Trace = &buf
	m.TraceLimit = 10
	if err := m.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "iimm") || !strings.Contains(out, "iadd") {
		t.Errorf("trace missing operations:\n%s", out)
	}
	if n := strings.Count(out, "\n"); int64(n) != m.Stats.Instrs {
		t.Errorf("trace lines %d != instrs %d", n, m.Stats.Instrs)
	}
}
