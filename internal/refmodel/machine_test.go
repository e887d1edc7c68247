package refmodel

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
)

// uop builds an unguarded decoded slot op (the decoder's default guard
// is the hardwired-one register).
func uop(o isa.Opcode, s1, s2, d isa.Reg, imm uint32) *encode.DecOp {
	return &encode.DecOp{Opcode: uint16(o), Guard: isa.R1, S1: s1, S2: s2, D: d, Imm: imm}
}

func gop(g isa.Reg, o isa.Opcode, s1, s2, d isa.Reg, imm uint32) *encode.DecOp {
	op := uop(o, s1, s2, d, imm)
	op.Guard = g
	return op
}

func jmp(o isa.Opcode, g isa.Reg, target uint32) *encode.DecOp {
	return &encode.DecOp{Opcode: uint16(o), Guard: g, Target: target}
}

const testBase = 0x4000

// seq lays a one-op-per-instruction program out at testBase with a
// fixed instruction size, so instruction i sits at pcOf(i).
func seq(ops ...*encode.DecOp) []encode.DecInstr {
	out := make([]encode.DecInstr, len(ops))
	for i, op := range ops {
		out[i] = encode.DecInstr{Addr: pcOf(i), Size: 28, Slots: [5]*encode.DecOp{op}}
	}
	return out
}

func pcOf(i int) uint32 { return testBase + uint32(28*i) }

func mustRun(t *testing.T, m *Machine) {
	t.Helper()
	if trap := m.Run(); trap != nil {
		t.Fatalf("unexpected trap: %v", trap)
	}
}

func wantTrap(t *testing.T, m *Machine, kind TrapKind) *Trap {
	t.Helper()
	trap := m.Run()
	if trap == nil {
		t.Fatalf("ran clean, want trap %v", kind)
	}
	if trap.Kind != kind {
		t.Fatalf("trap %v (%s), want %v", trap.Kind, trap.Reason, kind)
	}
	return trap
}

// TestGuardFalseNoOp: a guard-false operation must leave the machine
// untouched — same op guarded true writes its destination.
func TestGuardFalseNoOp(t *testing.T) {
	prog := func(g isa.Reg) []encode.DecInstr {
		return seq(gop(g, isa.OpIIMM, 0, 0, isa.Reg(10), 0xdeadbeef))
	}
	m := New(prog(isa.R0), config.ConfigD(), nil) // guard reads 0: no-op
	mustRun(t, m)
	if got := m.Reg(isa.Reg(10)); got != 0 {
		t.Errorf("guard-false iimm wrote r10 = %#x, want untouched 0", got)
	}
	m = New(prog(isa.R1), config.ConfigD(), nil) // guard reads 1: executes
	mustRun(t, m)
	if got := m.Reg(isa.Reg(10)); got != 0xdeadbeef {
		t.Errorf("guard-true iimm: r10 = %#x, want 0xdeadbeef", got)
	}
}

// TestSuperOpDualDest: a two-slot operation writes both destination
// registers — the main half's and the extension half's.
func TestSuperOpDualDest(t *testing.T) {
	main := uop(isa.OpSUPERDUALIMIX, isa.Reg(10), isa.Reg(11), isa.Reg(20), 0)
	ext := &encode.DecOp{Opcode: encode.SuperExtOpcode,
		S1: isa.Reg(12), S2: isa.Reg(13), D: isa.Reg(21)}
	in := encode.DecInstr{Addr: testBase, Size: 28,
		Slots: [5]*encode.DecOp{main, ext}}
	m := New([]encode.DecInstr{in}, config.ConfigD(), nil)
	m.SetReg(isa.Reg(10), 0x00020003)
	m.SetReg(isa.Reg(11), 0x00040005)
	m.SetReg(isa.Reg(12), 0x00010001)
	m.SetReg(isa.Reg(13), 0x00010001)
	mustRun(t, m)
	if d0 := m.Reg(isa.Reg(20)); d0 != 9 {
		t.Errorf("super dual mix d0 = %#x, want 9", d0)
	}
	if d1 := m.Reg(isa.Reg(21)); d1 != 16 {
		t.Errorf("super dual mix d1 = %#x, want 16", d1)
	}
}

// TestDelayedWriteback: a result commits `latency` instructions after
// issue — a reader inside the window sees the stale value, a reader at
// the boundary sees the new one. imul has latency 3 on every target.
func TestDelayedWriteback(t *testing.T) {
	m := New(seq(
		uop(isa.OpIMUL, isa.Reg(10), isa.Reg(11), isa.Reg(20), 0), // r20 <- 12 at issue 3
		uop(isa.OpIADD, isa.Reg(20), isa.R0, isa.Reg(21), 0),      // issue 1: stale
		uop(isa.OpNOP, 0, 0, 0, 0),
		uop(isa.OpIADD, isa.Reg(20), isa.R0, isa.Reg(22), 0), // issue 3: committed
	), config.ConfigD(), nil)
	m.SetReg(isa.Reg(10), 3)
	m.SetReg(isa.Reg(11), 4)
	m.SetReg(isa.Reg(20), 0x55)
	mustRun(t, m)
	if got := m.Reg(isa.Reg(21)); got != 0x55 {
		t.Errorf("reader inside the latency window: r21 = %#x, want stale 0x55", got)
	}
	if got := m.Reg(isa.Reg(22)); got != 12 {
		t.Errorf("reader at the latency boundary: r22 = %#x, want 12", got)
	}
}

// TestJumpDelaySlots: a taken jump redirects only after the target's
// delay slots, so the instructions in the window still execute — 3 on
// the TM3260 configuration, 5 on the TM3270.
func TestJumpDelaySlots(t *testing.T) {
	for _, tc := range []struct {
		target config.Target
		want   uint32
	}{
		{config.ConfigA(), 3},
		{config.ConfigD(), 5},
	} {
		end := pcOf(7) // one past the last instruction: halts
		ops := []*encode.DecOp{jmp(isa.OpJMPI, isa.R1, end)}
		for i := 0; i < 6; i++ {
			ops = append(ops, uop(isa.OpIADDI, isa.Reg(10), 0, isa.Reg(10), 1))
		}
		m := New(seq(ops...), tc.target, nil)
		mustRun(t, m)
		if got := m.Reg(isa.Reg(10)); got != tc.want {
			t.Errorf("%s: %d delay-slot increments, want %d", tc.target.Name, got, tc.want)
		}
	}
}

// TestTrapDelayViolation: a jump taken inside an earlier taken jump's
// delay window is an architectural fault.
func TestTrapDelayViolation(t *testing.T) {
	end := pcOf(7)
	m := New(seq(
		jmp(isa.OpJMPI, isa.R1, end),
		jmp(isa.OpJMPI, isa.R1, end),
		uop(isa.OpNOP, 0, 0, 0, 0), uop(isa.OpNOP, 0, 0, 0, 0),
		uop(isa.OpNOP, 0, 0, 0, 0), uop(isa.OpNOP, 0, 0, 0, 0),
		uop(isa.OpNOP, 0, 0, 0, 0),
	), config.ConfigD(), nil)
	trap := wantTrap(t, m, TrapDelayViolation)
	if trap.Issue != 1 || trap.PC != pcOf(1) {
		t.Errorf("trap at issue %d pc %#x, want issue 1 pc %#x", trap.Issue, trap.PC, pcOf(1))
	}
	// A guard-false jump in the window is fine: it does not take.
	m = New(seq(
		jmp(isa.OpJMPI, isa.R1, end),
		jmp(isa.OpJMPT, isa.R0, end),
		uop(isa.OpNOP, 0, 0, 0, 0), uop(isa.OpNOP, 0, 0, 0, 0),
		uop(isa.OpNOP, 0, 0, 0, 0), uop(isa.OpNOP, 0, 0, 0, 0),
		uop(isa.OpNOP, 0, 0, 0, 0),
	), config.ConfigD(), nil)
	mustRun(t, m)
}

// TestTrapBadTarget: a taken jump must land on an instruction boundary
// of the loaded binary.
func TestTrapBadTarget(t *testing.T) {
	m := New(seq(jmp(isa.OpJMPI, isa.R1, testBase+2)), config.ConfigD(), nil)
	trap := wantTrap(t, m, TrapBadTarget)
	if trap.Addr != testBase+2 {
		t.Errorf("trap addr %#x, want %#x", trap.Addr, testBase+2)
	}
	// jmpf takes on a zero guard: same check applies.
	m = New(seq(jmp(isa.OpJMPF, isa.R0, testBase+3)), config.ConfigD(), nil)
	wantTrap(t, m, TrapBadTarget)
}

// TestTrapBadPair: a stray extension half, or a two-slot main half
// without one, is a malformed bundle.
func TestTrapBadPair(t *testing.T) {
	stray := encode.DecInstr{Addr: testBase, Size: 28,
		Slots: [5]*encode.DecOp{{Opcode: encode.SuperExtOpcode}}}
	m := New([]encode.DecInstr{stray}, config.ConfigD(), nil)
	wantTrap(t, m, TrapBadPair)

	unpaired := encode.DecInstr{Addr: testBase, Size: 28,
		Slots: [5]*encode.DecOp{uop(isa.OpSUPERLD32R, isa.Reg(10), isa.R0, isa.Reg(20), 0)}}
	m = New([]encode.DecInstr{unpaired}, config.ConfigD(), nil)
	wantTrap(t, m, TrapBadPair)
}

// TestTrapBadOpcode: an undefined opcode in a slot stops the machine.
func TestTrapBadOpcode(t *testing.T) {
	bad := encode.DecInstr{Addr: testBase, Size: 28,
		Slots: [5]*encode.DecOp{{Opcode: 500, Guard: isa.R1}}}
	m := New([]encode.DecInstr{bad}, config.ConfigD(), nil)
	wantTrap(t, m, TrapBadOpcode)
}

// mmioMachine builds a one-op program touching the MMIO block, with the
// block base in r10 and a store value in r11.
func mmioMachine(t config.Target, op *encode.DecOp) *Machine {
	m := New(seq(op), t, nil)
	m.SetReg(isa.Reg(10), prefetch.MMIOBase)
	m.SetReg(isa.Reg(11), 0x1234)
	return m
}

// TestMMIO pins the prefetch MMIO bank semantics: 32-bit aligned
// accesses on a prefetch-capable target read and write the bank, the
// reserved fourth word reads zero and drops stores, and everything else
// traps the way the pipeline model's bus does.
func TestMMIO(t *testing.T) {
	d := config.ConfigD()
	if !d.HasRegionPrefetch {
		t.Fatal("ConfigD must have the region prefetcher")
	}

	// Store/load roundtrip through region 1's END register (offset 16+4).
	m := New(seq(
		uop(isa.OpST32D, isa.Reg(10), isa.Reg(11), 0, 20),
		uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 20),
	), d, nil)
	m.SetReg(isa.Reg(10), prefetch.MMIOBase)
	m.SetReg(isa.Reg(11), 0x1234)
	mustRun(t, m)
	if got := m.Reg(isa.Reg(20)); got != 0x1234 {
		t.Errorf("MMIO roundtrip read %#x, want 0x1234", got)
	}
	if bank := m.MMIORegs(); bank[1][1] != 0x1234 {
		t.Errorf("region 1 END = %#x, want 0x1234", bank[1][1])
	}

	// The fourth word of each region is reserved: stores drop, loads
	// read zero.
	m = New(seq(
		uop(isa.OpST32D, isa.Reg(10), isa.Reg(11), 0, 12),
		uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 12),
	), d, nil)
	m.SetReg(isa.Reg(10), prefetch.MMIOBase)
	m.SetReg(isa.Reg(11), 0xffff)
	m.SetReg(isa.Reg(20), 0x77)
	mustRun(t, m)
	if got := m.Reg(isa.Reg(20)); got != 0 {
		t.Errorf("reserved MMIO word read %#x, want 0", got)
	}
	if bank := m.MMIORegs(); bank[0] != [3]uint32{} {
		t.Errorf("reserved store leaked into region 0 bank: %v", bank[0])
	}

	for _, tc := range []struct {
		name   string
		target config.Target
		op     *encode.DecOp
	}{
		{"sub-word store", d, uop(isa.OpST16D, isa.Reg(10), isa.Reg(11), 0, 0)},
		{"sub-word load", d, uop(isa.OpLD8D, isa.Reg(10), 0, isa.Reg(20), 0)},
		{"misaligned", d, uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 2)},
		{"no prefetcher", config.ConfigA(), uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 0)},
	} {
		trap := wantTrap(t, mmioMachine(tc.target, tc.op), TrapMMIO)
		if trap.Slot != 1 {
			t.Errorf("%s: trap slot %d, want 1", tc.name, trap.Slot)
		}
	}

	// A word access straddling the block base from below traps too.
	m = mmioMachine(d, uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 0))
	m.SetReg(isa.Reg(10), prefetch.MMIOBase-2)
	m.Mem.WriteBytes(prefetch.MMIOBase-8, make([]byte, 8))
	wantTrap(t, m, TrapMMIO)
}

// TestWatchdog: an infinite loop hits the instruction budget.
func TestWatchdog(t *testing.T) {
	ops := []*encode.DecOp{jmp(isa.OpJMPI, isa.R1, testBase)}
	for i := 0; i < 6; i++ {
		ops = append(ops, uop(isa.OpNOP, 0, 0, 0, 0))
	}
	m := New(seq(ops...), config.ConfigD(), nil)
	m.MaxInstrs = 100
	trap := wantTrap(t, m, TrapWatchdog)
	if trap.Issue != 100 {
		t.Errorf("watchdog at issue %d, want 100", trap.Issue)
	}
}

// TestStrictMem: per-byte write-validity tracking — a load is clean
// only when every byte it touches has been written, finer than the
// pipeline model's page-granular check.
func TestStrictMem(t *testing.T) {
	load := seq(uop(isa.OpLD32D, isa.Reg(10), 0, isa.Reg(20), 0))

	m := New(load, config.ConfigD(), nil)
	m.StrictMem = true
	m.SetReg(isa.Reg(10), 0x2000)
	m.Mem.WriteBytes(0x2000, []byte{0xaa, 0xbb}) // only 2 of the 4 bytes
	trap := wantTrap(t, m, TrapUndefinedRead)
	if trap.Addr != 0x2000 {
		t.Errorf("trap addr %#x, want 0x2000", trap.Addr)
	}

	m = New(load, config.ConfigD(), nil)
	m.StrictMem = true
	m.SetReg(isa.Reg(10), 0x2000)
	m.Mem.WriteBytes(0x2000, []byte{0xaa, 0xbb, 0xcc, 0xdd})
	mustRun(t, m)
	if got := m.Reg(isa.Reg(20)); got != 0xaabbccdd {
		t.Errorf("defined load read %#x, want 0xaabbccdd", got)
	}

	// Stores into the reserved null page trap in strict mode only.
	st := seq(uop(isa.OpST32D, isa.Reg(10), isa.Reg(11), 0, 0))
	m = New(st, config.ConfigD(), nil)
	m.StrictMem = true
	m.SetReg(isa.Reg(10), 0x800)
	wantTrap(t, m, TrapNullStore)
	m = New(st, config.ConfigD(), nil)
	m.SetReg(isa.Reg(10), 0x800)
	mustRun(t, m)

	// allocd performs no functional memory access, so it is exempt from
	// both strict checks.
	m = New(seq(uop(isa.OpALLOCD, isa.Reg(10), 0, 0, 0)), config.ConfigD(), nil)
	m.StrictMem = true
	m.SetReg(isa.Reg(10), 0x800)
	mustRun(t, m)
	if pages := m.Mem.PageAddrs(); len(pages) != 0 {
		t.Errorf("allocd touched memory: pages %v", pages)
	}
}

// TestStoreWidthBytes: each store form writes exactly its width,
// big-endian, leaving neighbours intact.
func TestStoreWidthBytes(t *testing.T) {
	m := New(seq(uop(isa.OpST16D, isa.Reg(10), isa.Reg(11), 0, 1)), config.ConfigD(), nil)
	m.SetReg(isa.Reg(10), 0x2000)
	m.SetReg(isa.Reg(11), 0x11223344)
	m.Mem.WriteBytes(0x2000, []byte{0xaa, 0xaa, 0xaa, 0xaa})
	mustRun(t, m)
	want := []byte{0xaa, 0x33, 0x44, 0xaa}
	for i, b := range want {
		if got := m.Mem.ByteAt(0x2000 + uint32(i)); got != b {
			t.Errorf("byte %#x = %#x, want %#x", 0x2000+i, got, b)
		}
	}
}

// TestHaltOnEndTarget: jumping to the address one past the last
// instruction halts the machine cleanly (the kernel epilogue pattern).
func TestHaltOnEndTarget(t *testing.T) {
	ops := []*encode.DecOp{jmp(isa.OpJMPI, isa.R1, pcOf(7))}
	for i := 0; i < 6; i++ {
		ops = append(ops, uop(isa.OpNOP, 0, 0, 0, 0))
	}
	m := New(seq(ops...), config.ConfigD(), nil)
	mustRun(t, m)
	if !m.Done() || m.Trap() != nil {
		t.Errorf("machine not cleanly halted: done=%v trap=%v", m.Done(), m.Trap())
	}
	if m.Issue() != 6 {
		t.Errorf("retired %d instructions, want 6", m.Issue())
	}
}

// TestMemFrom: the copy of a pipeline-model image keeps its data and
// per-byte validity, so never-written bytes of a populated page stay
// undefined.
func TestMemFrom(t *testing.T) {
	src := mem.NewFunc()
	src.SetByte(0x1000, 0xaa)
	src.Store(0x1ffe, 4, 0x11223344) // straddles two pages
	src.SetByte(0x8000_0007, 0x55)
	m := MemFrom(src)
	if got, want := m.PageAddrs(), src.PageAddrs(); len(got) != len(want) {
		t.Fatalf("pages %#x, want %#x", got, want)
	}
	for _, pa := range src.PageAddrs() {
		for a := pa; a < pa+pageSize; a++ {
			if m.ByteAt(a) != src.ByteAt(a) || m.Defined(a, 1) != src.Defined(a, 1) {
				t.Fatalf("%#x: byte %#x defined %v, want %#x defined %v",
					a, m.ByteAt(a), m.Defined(a, 1), src.ByteAt(a), src.Defined(a, 1))
			}
		}
	}
	if m.Defined(0x1001, 1) || !m.Defined(0x1ffe, 4) {
		t.Error("validity not copied per byte")
	}
}
