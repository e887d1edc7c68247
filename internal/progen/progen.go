// Package progen generates seeded random *legal* VLIW programs for the
// differential conformance harness: every generated program compiles
// through the regular scheduler/allocator/encoder pipeline (so the
// schedule respects latency, slot, pair and writeback constraints by
// construction and passes the static binary verifier), terminates (all
// loops — including loops nested inside other loops — are down-counted
// with unguarded decrements), and keeps every memory access inside a
// fixed data window or the prefetch MMIO block. A handful of hot
// offsets per program is shared between stores, displacement loads and
// wide collapsed/super loads, so address collisions between accesses
// of different widths occur by design rather than by luck.
//
// Determinism: the same (seed, target) pair always yields the same
// program, so any co-simulation divergence is reproducible from its
// seed alone.
package progen

import (
	"fmt"
	"math/rand"

	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
)

// Config parameterizes generation.
type Config struct {
	Seed   int64
	Target *config.Target

	// Ops is the approximate operation budget (default 64).
	Ops int
}

// memBase and memSize bound the data window every generated memory
// access stays inside: 64 KB at 0x0200_0000. memSize is a power of
// two, so masking an index with memSize-8 keeps an 8-byte access in it.
const (
	memBase = 0x0200_0000
	memSize = 1 << 16
)

// Info describes the shapes one generated program contains, so tests
// and campaign reports can prove the generator's coverage instead of
// assuming it.
type Info struct {
	// Ops is the number of random operations emitted.
	Ops int
	// Loops is the number of counted loops (outer and inner).
	Loops int
	// Nested is the number of loops emitted inside another loop — each
	// adds a backward branch nested within an outer backward region.
	Nested int
	// Collisions is the number of memory accesses aimed at one of the
	// program's hot offsets (shared with other accesses by design).
	Collisions int
	// Collapsed is the subset of Collisions carried by collapsed or
	// super loads (LD_FRAC8, SUPER_LD32R), whose wide accesses overlap
	// plain stores at the same offset.
	Collapsed int
	// MMIO reports whether the program touches the prefetch MMIO bank.
	MMIO bool
}

// gen carries the generation state: the value-register pool doubles as
// source, destination and guard pool, while control registers (loop
// counters, loop guards, window base and mask) live outside it so no
// random operation can clobber loop termination or address legality.
type gen struct {
	cfg     Config
	rng     *rand.Rand
	b       *prog.Builder
	vals    []prog.VReg
	base    prog.VReg   // data window base address
	mask    prog.VReg   // memSize-8: masks an index into the window
	mmio    prog.VReg   // MMIO block base (prefetch targets only)
	scratch []prog.VReg // ring of temporaries for address formation
	nextTmp int
	pool    []isa.Opcode
	lbl     int
	hot     []uint32 // offsets shared between colliding accesses
	info    Info
}

// Generate builds the random program for the configuration.
func Generate(cfg Config) *prog.Program {
	p, _ := GenerateInfo(cfg)
	return p
}

// GenerateInfo builds the random program and reports which shapes it
// contains.
func GenerateInfo(cfg Config) (*prog.Program, Info) {
	if cfg.Ops == 0 {
		cfg.Ops = 64
	}
	g := &gen{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		b:   prog.NewBuilder(fmt.Sprintf("gen%d", cfg.Seed)),
	}
	g.pool = opPool(cfg.Target)

	g.vals = g.b.Regs(12)
	for _, v := range g.vals {
		g.b.Imm(v, g.rng.Uint32())
	}
	g.base = g.b.ImmReg(memBase)
	g.mask = g.b.ImmReg(memSize - 8)
	g.scratch = g.b.Regs(8)
	for _, v := range g.scratch {
		g.b.Imm(v, 0)
	}
	if cfg.Target.HasRegionPrefetch {
		g.mmio = g.b.ImmReg(prefetch.MMIOBase)
	}
	// Hot offsets: a handful of 8-byte-aligned displacements that
	// colliding loads and stores share, so the same bytes are hit by
	// narrow stores, wide collapsed loads and super loads in one run.
	for i := 0; i < 3; i++ {
		g.hot = append(g.hot, uint32(8*g.rng.Intn(126)))
	}

	nLoops := 1 + g.rng.Intn(3)
	perRegion := cfg.Target.HasRegionPrefetch
	budget := cfg.Ops
	for l := 0; l < nLoops; l++ {
		g.straightLine(budget / (3 * nLoops))
		g.loop(budget/(2*nLoops), 0)
	}
	g.straightLine(budget / 6)
	if perRegion && g.rng.Intn(2) == 0 {
		g.mmioOps()
		g.info.MMIO = true
	}
	// Witness stores: make a few register results memory-observable.
	for i := 0; i < 3; i++ {
		g.b.St32D(g.base, int32(4*i), g.pick())
	}
	return g.b.MustProgram(), g.info
}

// opPool returns every target-supported opcode the generator draws
// from; control flow, NOP and IIMM are structured separately.
func opPool(t *config.Target) []isa.Opcode {
	var pool []isa.Opcode
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		info, ok := isa.InfoOK(op)
		if !ok || info.IsJump || op == isa.OpNOP || op == isa.OpIIMM {
			continue
		}
		if !t.Supports(op) {
			continue
		}
		pool = append(pool, op)
	}
	return pool
}

func (g *gen) pick() prog.VReg { return g.vals[g.rng.Intn(len(g.vals))] }

// pick2 returns two distinct value registers (dual-destination ops).
func (g *gen) pick2() (prog.VReg, prog.VReg) {
	a := g.rng.Intn(len(g.vals))
	b := g.rng.Intn(len(g.vals) - 1)
	if b >= a {
		b++
	}
	return g.vals[a], g.vals[b]
}

// tmp returns the next scratch register from a fixed ring, bounding
// register pressure independently of the operation budget.
func (g *gen) tmp() prog.VReg {
	v := g.scratch[g.nextTmp%len(g.scratch)]
	g.nextTmp++
	return v
}

func (g *gen) label(kind string) string {
	g.lbl++
	return fmt.Sprintf("%s%d", kind, g.lbl)
}

// guardMaybe guards about a quarter of operations with a random value
// register (bit 0 decides execution, so both outcomes occur).
func (g *gen) guardMaybe(op *prog.Op) {
	if g.rng.Intn(4) == 0 {
		op.WithGuard(g.pick())
	}
}

// straightLine emits n random operations.
func (g *gen) straightLine(n int) {
	for i := 0; i < n; i++ {
		g.emitRandom()
	}
}

// loop emits one counted loop with n body operations, possibly with a
// counted inner loop nested in the body (one level deep), so backward
// branches occur inside other backward regions. The counters and
// their guards live outside the value pool, the inner counter is
// re-materialized on every outer iteration, and the decrements are
// unguarded, so termination is structural at every depth.
func (g *gen) loop(n, depth int) {
	g.info.Loops++
	if depth > 0 {
		g.info.Nested++
	}
	cnt := g.b.ImmReg(uint32(2 + g.rng.Intn(4)))
	head := g.label("loop")
	g.b.Label(head)

	innerAt := -1
	if depth == 0 && n >= 8 && g.rng.Intn(2) == 0 {
		innerAt = 1 + g.rng.Intn(n/2)
	}
	fwd := ""
	fwdAt := -1
	if n >= 4 && g.rng.Intn(2) == 0 {
		fwdAt = 1 + g.rng.Intn(n/2)
	}
	for i := 0; i < n; i++ {
		if i == fwdAt {
			fwd = g.label("skip")
			if g.rng.Intn(2) == 0 {
				g.b.JmpT(g.pick(), fwd)
			} else {
				g.b.JmpF(g.pick(), fwd)
			}
		}
		if i == innerAt {
			g.loop(2+n/4, depth+1)
		}
		g.emitRandom()
	}
	if fwd != "" {
		g.b.Label(fwd)
	}

	g.b.AddI(cnt, cnt, -1)
	again := g.b.Reg()
	g.b.GtrI(again, cnt, 0)
	g.b.JmpT(again, head)
}

// mmioOps programs prefetch regions through the memory-mapped registers
// and reads one back, exercising the MMIO path of both models. The
// reserved fourth word of a region (offset 12) is included: stores to
// it are dropped and loads return zero.
func (g *gen) mmioOps() {
	for i := 0; i < 2; i++ {
		off := int32(4 * g.rng.Intn(16))
		g.b.St32D(g.mmio, off, g.pick())
	}
	g.b.Ld32D(g.pick(), g.mmio, int32(4*g.rng.Intn(16)))
}

// smallImm fits every encoding form: guarded operations get an 11-bit
// signed immediate field, so the generator stays within ±1000.
func (g *gen) smallImm() uint32 { return uint32(int32(g.rng.Intn(2001) - 1000)) }

// index materializes a random in-window byte index: masking with
// memSize-8 clears the low three bits and bounds the value, so even an
// 8-byte access from base+index stays inside the window.
func (g *gen) index() prog.VReg {
	idx := g.tmp()
	g.b.And(idx, g.pick(), g.mask)
	return idx
}

// hotOff draws one of the program's hot offsets.
func (g *gen) hotOff() uint32 { return g.hot[g.rng.Intn(len(g.hot))] }

// hotIndex materializes a hot offset as an index register, so the
// access collides with the displacement accesses aimed at the same
// offset. Hot offsets are 8-byte aligned and < 1008, so any access
// width from base+offset stays inside the window.
func (g *gen) hotIndex() prog.VReg {
	idx := g.tmp()
	g.b.Imm(idx, g.hotOff())
	return idx
}

// hotImm replaces about a third of displacement immediates with a hot
// offset, colliding the access with others at the same address.
func (g *gen) hotImm(imm uint32) uint32 {
	if g.rng.Intn(3) == 0 {
		g.info.Collisions++
		return g.hotOff()
	}
	return imm
}

// emitRandom draws one opcode from the pool and emits it with legal
// operands.
func (g *gen) emitRandom() {
	g.info.Ops++
	// Occasionally refresh a value register with a fresh constant so
	// the pool doesn't collapse into derived values.
	if g.rng.Intn(8) == 0 {
		g.b.Imm(g.pick(), g.rng.Uint32())
		return
	}
	op := g.pool[g.rng.Intn(len(g.pool))]
	info := isa.Info(op)

	switch {
	case op == isa.OpALLOCD:
		g.guardMaybe(g.b.AllocD(g.base, int32(g.rng.Intn(1001))))

	case info.IsStore:
		o := g.b.Emit(prog.Op{Opcode: op,
			Src: [4]prog.VReg{g.base, g.pick()},
			Imm: g.hotImm(uint32(g.rng.Intn(1001)))})
		g.guardMaybe(o)

	case op == isa.OpLDFRAC8:
		// Address operand is the full effective address (no implicit
		// base): compute base+index explicitly.
		idx := g.index()
		if g.rng.Intn(2) == 0 {
			idx = g.hotIndex()
			g.info.Collisions++
			g.info.Collapsed++
		}
		addr := g.tmp()
		g.b.Add(addr, g.base, idx)
		g.guardMaybe(g.b.LdFrac8(g.pick(), addr, g.pick()))

	case op == isa.OpSUPERLD32R:
		idx := g.index()
		if g.rng.Intn(2) == 0 {
			idx = g.hotIndex()
			g.info.Collisions++
			g.info.Collapsed++
		}
		d1, d2 := g.pick2()
		g.guardMaybe(g.b.SuperLd32R(d1, d2, g.base, idx))

	case info.IsLoad && info.NSrc == 2: // indexed loads
		idx := g.index()
		if g.rng.Intn(3) == 0 {
			idx = g.hotIndex()
			g.info.Collisions++
		}
		o := g.b.Emit(prog.Op{Opcode: op,
			Src:  [4]prog.VReg{g.base, idx},
			Dest: [2]prog.VReg{g.pick()}})
		g.guardMaybe(o)

	case info.IsLoad: // displacement loads
		o := g.b.Emit(prog.Op{Opcode: op,
			Src:  [4]prog.VReg{g.base},
			Dest: [2]prog.VReg{g.pick()},
			Imm:  g.hotImm(uint32(g.rng.Intn(1001)))})
		g.guardMaybe(o)

	case info.TwoSlot:
		o := prog.Op{Opcode: op}
		for k := 0; k < info.NSrc; k++ {
			o.Src[k] = g.pick()
		}
		if info.NDest == 2 {
			o.Dest[0], o.Dest[1] = g.pick2()
		} else if info.NDest == 1 {
			o.Dest[0] = g.pick()
		}
		g.guardMaybe(g.b.Emit(o))

	case info.HasImm && info.NSrc <= 1:
		o := prog.Op{Opcode: op, Dest: [2]prog.VReg{g.pick()}, Imm: g.smallImm()}
		if info.NSrc == 1 {
			o.Src[0] = g.pick()
		}
		g.guardMaybe(g.b.Emit(o))

	default:
		o := prog.Op{Opcode: op, Dest: [2]prog.VReg{g.pick()}}
		for k := 0; k < info.NSrc; k++ {
			o.Src[k] = g.pick()
		}
		g.guardMaybe(g.b.Emit(o))
	}
}
