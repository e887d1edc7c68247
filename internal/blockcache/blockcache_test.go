package blockcache_test

import (
	"strings"
	"testing"

	"tm3270/internal/blockcache"
	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/icache"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
)

const base = 0x0100_0000

// translated compiles a program for the target and returns everything
// a Cache or Translate call needs.
func translated(t *testing.T, p *prog.Program, tgt config.Target) (*sched.Code, *regalloc.Map, *encode.Encoded) {
	t.Helper()
	code, err := sched.Schedule(p, tgt)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	enc, err := encode.Encode(code, rm, base)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return code, rm, enc
}

// loopProgram counts i up to n with a backward conditional jump — one
// jump-carrying instruction, so the code splits into at least two
// blocks (the loop body, and the straight-line tail after it).
func loopProgram(n int32) *prog.Program {
	b := prog.NewBuilder("bc_loop")
	i, cond, acc := b.Reg(), b.Reg(), b.Reg()
	b.Imm(i, 0)
	b.Imm(acc, 0)
	b.Label("loop")
	b.AddI(i, i, 1)
	b.Add(acc, acc, i)
	b.NeqI(cond, i, n)
	b.JmpT(cond, "loop")
	b.AddI(acc, acc, 7) // tail past the jump: a second block
	return b.MustProgram()
}

func TestTranslateBlockShape(t *testing.T) {
	tgt := config.TM3270()
	code, rm, enc := translated(t, loopProgram(4), tgt)

	b, err := blockcache.Translate(code, rm, enc, &tgt, 0)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if b.Entry != 0 || b.N <= 0 {
		t.Fatalf("block covers [%d, %d+%d), want entry 0 and N > 0", b.Entry, b.Entry, b.N)
	}
	// The block must end at the first jump-carrying instruction and
	// include it; every earlier instruction must carry no jump.
	last := b.Entry + b.N - 1
	if last >= len(code.Instrs) {
		t.Fatalf("block runs past code end: last %d of %d", last, len(code.Instrs))
	}
	for i := b.Entry; i <= last; i++ {
		hasJump := false
		for s := 0; s < 5; s++ {
			so := code.Instrs[i].Slots[s]
			if so.Op != nil && !so.Second && so.Op.Info().IsJump {
				hasJump = true
			}
		}
		if hasJump && i != last {
			t.Errorf("instruction %d carries a jump inside the block", i)
		}
	}

	// Struct-of-arrays invariants: OpFirst has N+1 monotone entries
	// covering the whole op stream; per-instruction arrays are length N.
	if len(b.OpFirst) != b.N+1 {
		t.Fatalf("len(OpFirst) = %d, want N+1 = %d", len(b.OpFirst), b.N+1)
	}
	if b.OpFirst[0] != 0 || int(b.OpFirst[b.N]) != len(b.Ops) {
		t.Errorf("OpFirst spans [%d, %d], want [0, %d]", b.OpFirst[0], b.OpFirst[b.N], len(b.Ops))
	}
	for i := 0; i < b.N; i++ {
		if b.OpFirst[i] > b.OpFirst[i+1] {
			t.Errorf("OpFirst not monotone at %d: %d > %d", i, b.OpFirst[i], b.OpFirst[i+1])
		}
	}
	for _, l := range [][]uint32{b.FetchAddr, b.ChunkLo, b.ChunkHi} {
		if len(l) != b.N {
			t.Errorf("per-instruction array length %d, want %d", len(l), b.N)
		}
	}
	if len(b.TargetLabel) != len(b.Ops) || len(b.Info) != len(b.Ops) {
		t.Errorf("cold arrays (%d labels, %d infos) out of step with %d ops",
			len(b.TargetLabel), len(b.Info), len(b.Ops))
	}

	// Fetch metadata must agree with the encoding, chunk bounds with
	// the instruction-cache geometry.
	for i := 0; i < b.N; i++ {
		gi := b.Entry + i
		if b.FetchAddr[i] != enc.Addr[gi] || b.FetchSize[i] != int32(enc.Size[gi]) {
			t.Errorf("instr %d fetch %#x+%d, encoding says %#x+%d",
				gi, b.FetchAddr[i], b.FetchSize[i], enc.Addr[gi], enc.Size[gi])
		}
		if b.ChunkLo[i]%icache.ChunkBytes != 0 || b.ChunkHi[i]%icache.ChunkBytes != 0 {
			t.Errorf("instr %d chunks %#x..%#x not %d-byte aligned",
				gi, b.ChunkLo[i], b.ChunkHi[i], icache.ChunkBytes)
		}
		if b.ChunkLo[i] > b.ChunkHi[i] {
			t.Errorf("instr %d ChunkLo %#x > ChunkHi %#x", gi, b.ChunkLo[i], b.ChunkHi[i])
		}
	}

	// The jump micro-op must be flagged and its backward target
	// resolved to an instruction index inside the code.
	jumps := 0
	for oi, op := range b.Ops {
		if op.Flags&blockcache.FlagJump == 0 {
			continue
		}
		jumps++
		if op.Target < 0 || int(op.Target) >= len(code.Instrs) {
			t.Errorf("jump op %d target %d unresolved (label %q)", oi, op.Target, b.TargetLabel[oi])
		}
		if op.Lat < 1 || op.Lat > blockcache.MaxLatency {
			t.Errorf("jump op %d latency %d outside [1, %d]", oi, op.Lat, blockcache.MaxLatency)
		}
	}
	if jumps == 0 {
		t.Error("block carries no jump micro-op; the loop branch vanished")
	}
}

func TestTranslateRejectsBadEntry(t *testing.T) {
	tgt := config.TM3270()
	code, rm, enc := translated(t, loopProgram(2), tgt)
	for _, entry := range []int{-1, len(code.Instrs)} {
		if _, err := blockcache.Translate(code, rm, enc, &tgt, entry); err == nil {
			t.Errorf("entry %d accepted, want error", entry)
		}
	}
}

func TestTranslateRejectsLatencyBeyondHorizon(t *testing.T) {
	// A result latency past the engine's pending-write horizon cannot
	// be committed by the fixed ring; Translate must refuse statically
	// rather than corrupt state at runtime.
	b := prog.NewBuilder("bc_load")
	addr, v := b.Reg(), b.Reg()
	b.Ld32D(v, addr, 0)
	b.St32D(addr, 4, v)
	p := b.MustProgram()

	tgt := config.TM3270()
	tgt.LoadLatency = blockcache.MaxLatency + 1
	code, rm, enc := translated(t, p, tgt)
	_, err := blockcache.Translate(code, rm, enc, &tgt, 0)
	if err == nil {
		t.Fatal("latency beyond the commit horizon accepted")
	}
	if !strings.Contains(err.Error(), "horizon") {
		t.Errorf("error %q does not name the horizon", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	tgt := config.TM3270()
	code, rm, enc := translated(t, loopProgram(4), tgt)
	c := blockcache.New(code, rm, enc, &tgt)

	b0, err := c.Block(0)
	if err != nil {
		t.Fatalf("block 0: %v", err)
	}
	if c.Stats.Translated != 1 || c.Stats.Hits != 0 {
		t.Fatalf("after first entry: %+v, want 1 translation, 0 hits", c.Stats)
	}
	if b1, _ := c.Block(0); b1 != b0 {
		t.Error("second entry retranslated instead of hitting the cache")
	}
	if c.Stats.Hits != 1 {
		t.Errorf("hits = %d, want 1", c.Stats.Hits)
	}
}

// TestTranslateMemoryOps: every memory micro-op carries its class
// flags, its effective-address form and its access width.
func TestTranslateMemoryOps(t *testing.T) {
	const mem = blockcache.FlagMem
	for _, c := range []struct {
		name  string
		emit  func(b *prog.Builder, d, x, y prog.VReg)
		flags blockcache.Flags
		bytes uint16
	}{
		{"ld32d", func(b *prog.Builder, d, x, _ prog.VReg) { b.Ld32D(d, x, 8) },
			mem | blockcache.FlagLoad, 4},
		{"ld32r", func(b *prog.Builder, d, x, y prog.VReg) { b.Ld32R(d, x, y) },
			mem | blockcache.FlagLoad | blockcache.FlagAddrRR, 4},
		{"ld_frac8", func(b *prog.Builder, d, x, y prog.VReg) { b.LdFrac8(d, x, y) },
			mem | blockcache.FlagLoad | blockcache.FlagAddrBase, 5},
		{"st32d", func(b *prog.Builder, _, x, y prog.VReg) { b.St32D(x, 4, y) },
			mem | blockcache.FlagStore, 4},
		{"allocd", func(b *prog.Builder, _, x, _ prog.VReg) { b.AllocD(x, 0) },
			mem | blockcache.FlagStore | blockcache.FlagAlloc, 0},
	} {
		b := prog.NewBuilder("bc_" + c.name)
		d, x, y := b.Reg(), b.Reg(), b.Reg()
		c.emit(b, d, x, y)
		tgt := config.TM3270()
		code, rm, enc := translated(t, b.MustProgram(), tgt)
		blk, err := blockcache.Translate(code, rm, enc, &tgt, 0)
		if err != nil {
			t.Fatalf("%s: translate: %v", c.name, err)
		}
		if len(blk.Ops) != 1 || blk.Info[0].Name != c.name {
			t.Fatalf("%s: block holds %d ops, want the one %s", c.name, len(blk.Ops), c.name)
		}
		op := blk.Ops[0]
		if op.Flags != c.flags {
			t.Errorf("%s: flags %#x, want %#x", c.name, op.Flags, c.flags)
		}
		if op.MemBytes != c.bytes {
			t.Errorf("%s: MemBytes %d, want %d", c.name, op.MemBytes, c.bytes)
		}
	}
}

func TestCacheCoversWholeProgram(t *testing.T) {
	// Entering every instruction index must tile the code completely:
	// each instruction belongs to the block entered at it, and blocks
	// never run past the first jump or the code end.
	tgt := config.TM3270()
	code, rm, enc := translated(t, loopProgram(4), tgt)
	c := blockcache.New(code, rm, enc, &tgt)
	for i := range code.Instrs {
		b, err := c.Block(i)
		if err != nil {
			t.Fatalf("block at %d: %v", i, err)
		}
		if b.Entry != i {
			t.Errorf("block entered at %d reports entry %d", i, b.Entry)
		}
		if b.Entry+b.N > len(code.Instrs) {
			t.Errorf("block at %d covers %d instrs, past code end %d", i, b.N, len(code.Instrs))
		}
	}
	if c.Stats.Translated != int64(len(code.Instrs)) {
		t.Errorf("translated %d blocks for %d entries", c.Stats.Translated, len(code.Instrs))
	}
}

// TestTranslateAllocs checks that a translation's allocations do not
// grow with its size: a counting pass sizes every array once, so a
// 1-instruction block and a 256-instruction block cost the same.
func TestTranslateAllocs(t *testing.T) {
	tgt := config.ConfigD()
	b := prog.NewBuilder("bc_chain")
	x := b.Reg()
	b.Imm(x, 0)
	for i := 0; i < blockcache.MaxBlockInstrs+20; i++ {
		b.AddI(x, x, 1) // dependent: one instruction each
	}
	code, rm, enc := translated(t, b.MustProgram(), tgt)
	var allocs [2]float64
	for k, entry := range []int{len(code.Instrs) - 1, 0} {
		blk, err := blockcache.Translate(code, rm, enc, &tgt, entry)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{1, blockcache.MaxBlockInstrs}[k]; blk.N != want {
			t.Fatalf("block at %d covers %d instructions, want %d", entry, blk.N, want)
		}
		if len(blk.OpFirst) != blk.N+1 || int(blk.OpFirst[blk.N]) != len(blk.Ops) ||
			len(blk.TargetLabel) != len(blk.Ops) || len(blk.Info) != len(blk.Ops) ||
			len(blk.FetchAddr) != blk.N || len(blk.ChunkHi) != blk.N {
			t.Fatalf("block at %d: inconsistent array lengths", entry)
		}
		allocs[k] = testing.AllocsPerRun(20, func() {
			if _, err := blockcache.Translate(code, rm, enc, &tgt, entry); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Translate allocations: %.0f for 1 instruction, %.0f for %d",
			allocs[0], allocs[1], blockcache.MaxBlockInstrs)
	}
}

// BenchmarkTranslate measures translating the block entered at every
// instruction of a generated 64-op program on config D.
func BenchmarkTranslate(b *testing.B) {
	tgt := config.ConfigD()
	p := progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64})
	code, err := sched.Schedule(p, tgt)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := encode.Encode(code, rm, base)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for entry := range code.Instrs {
			if _, err := blockcache.Translate(code, rm, enc, &tgt, entry); err != nil {
				b.Fatal(err)
			}
		}
	}
}
