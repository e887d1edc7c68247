package workloads

import (
	"fmt"
	"strings"

	"tm3270/internal/cabac"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

// CABAC workload memory layout.
const (
	lpsTabBase  = 0x0800_0000 // 64x4 byte LPS range table
	mpsNextBase = 0x0800_0200 // 64-byte MPS transition table
	lpsNextBase = 0x0800_0300 // 64-byte LPS transition table
	cabCtxBase  = 0x0800_1000 // context table: DUAL16(state, mps) words
	cabStream   = 0x0810_0000 // encoded bitstream
	cabSeqBase  = 0x0820_0000 // per-bin context index (1 byte)
	cabBitsBase = 0x0840_0000 // decoded bins (1 byte each)
	cabMaint    = 0x0860_0000 // decoder bookkeeping counters
)

// FieldType describes the CABAC workload shape of one field type of
// Table 3: how many stream bits a field carries and how bursty the
// context usage is. I-fields decode long runs from few contexts with
// little per-element overhead; B-fields switch contexts constantly and
// pay decoder data-structure maintenance every few bins.
type FieldType struct {
	Name    string
	Bits    int // target stream bits (Table 3: average bits/field)
	NCtx    int // active contexts
	Run     int // bins decoded from a context before switching
	ElemLen int // bins per syntax element (maintenance interval)
	POne    float64
}

// Table 3 field types at paper scale (60 fields/s, 4.5 Mbit/s SD).
// I-fields carry dense, barely-compressible residual data (near one bin
// per stream bit, long context runs, little per-element maintenance);
// P- and B-fields carry fewer but more compressible bins with far more
// syntax-element overhead per bit, which is why the paper's VLIW
// instructions *per bit* rise from I to P to B.
func FieldI(bits int) FieldType {
	return FieldType{Name: "I", Bits: bits, NCtx: 24, Run: 14, ElemLen: 28, POne: 0.42}
}
func FieldP(bits int) FieldType {
	return FieldType{Name: "P", Bits: bits, NCtx: 40, Run: 5, ElemLen: 9, POne: 0.32}
}
func FieldB(bits int) FieldType {
	return FieldType{Name: "B", Bits: bits, NCtx: 48, Run: 3, ElemLen: 5, POne: 0.24}
}

// cabacData is the generated stream shared between Init and Check.
type cabacData struct {
	stream []byte
	bits   []uint8
	nBins  int
	nBits  int // actual stream bits produced
}

// generate encodes a synthetic field of the given shape, sized so the
// stream carries roughly f.Bits bits.
func generate(f FieldType) *cabacData {
	rng := video.NewLCG(uint32(0xC0DE + len(f.Name) + f.Bits))
	enc := cabac.NewEncoder()
	ctxs := make([]cabac.Context, f.NCtx)
	d := &cabacData{}
	cur, run := 0, 0
	for enc.NumBits() < f.Bits {
		if run == 0 {
			cur = rng.Intn(f.NCtx)
			run = 1 + rng.Intn(2*f.Run)
		}
		run--
		bit := uint8(0)
		if float64(rng.Intn(1000))/1000 < f.POne {
			bit = 1
		}
		d.bits = append(d.bits, bit)
		enc.EncodeBit(&ctxs[cur], bit)
	}
	d.nBins = len(d.bits)
	d.nBits = enc.NumBits()
	d.stream = enc.Flush()
	return d
}

// seqOf reproduces the context-index sequence of generate (same LCG).
func (f FieldType) install(m *mem.Func, d *cabacData) {
	// Tables.
	for s := uint32(0); s < 64; s++ {
		for q := uint32(0); q < 4; q++ {
			m.SetByte(lpsTabBase+s*4+q, byte(cabac.RangeLPS(s, q)))
		}
		m.SetByte(mpsNextBase+s, byte(cabac.NextMPS(s)))
		m.SetByte(lpsNextBase+s, byte(cabac.NextLPS(s)))
	}
	// Contexts start at state 0, MPS 0.
	for i := 0; i < f.NCtx; i++ {
		m.Store(cabCtxBase+uint32(4*i), 4, 0)
	}
	m.WriteBytes(cabStream, d.stream)
	// Context sequence: regenerate with the same LCG discipline.
	rng := video.NewLCG(uint32(0xC0DE + len(f.Name) + f.Bits))
	cur, run := 0, 0
	for i := 0; i < d.nBins; i++ {
		if run == 0 {
			cur = rng.Intn(f.NCtx)
			run = 1 + rng.Intn(2*f.Run)
		}
		run--
		m.SetByte(cabSeqBase+uint32(i), byte(cur))
		_ = rng.Intn(1000) // keep the LCG in lockstep with generate
	}
}

// CABACRef builds the non-optimized decode workload: the Figure 2
// biari_decode_symbol written with base TriMedia operations (table
// loads, guarded updates, clz-based renormalization), plus per-element
// decoder maintenance. This version re-compiles for the TM3260.
func CABACRef(f FieldType) *Spec {
	d := generate(f)
	name := "cabac_ref_" + strings.ToLower(f.Name)
	b := prog.NewBuilder(name)

	streamPtr, seqPtr, bitsPtr := b.Reg(), b.Reg(), b.Reg()
	lpsBase, mpsnB, lpsnB, ctxB, maintB := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	n := b.Reg()
	c31 := b.ImmReg(31)
	three := b.ImmReg(3)

	window, bitpos, bytePos, value, rng := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	i, cond := b.Reg(), b.Reg()
	ctxIdx, toff, ctxAddr, cw, state, mps := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	q, t2, t3, rlps, tmp, isLPS, isMPS := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	mnext, lnext, bit, ns, state0, flip := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	nr, sa, sb, va, addr2, mnt, maintCnt := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	mc1, mc2 := b.Reg(), b.Reg()

	// Decoder initialization (Figure 2 preamble).
	b.Ld32D(window, streamPtr, 0).InGroup(1)
	b.LsrI(value, window, 23) // first 9 stream bits
	b.Imm(bitpos, 9)
	b.Imm(bytePos, 0)
	b.Imm(rng, 510)
	b.Imm(i, 0)
	b.Imm(maintCnt, int32ToU(int32(f.ElemLen)))
	elemLen := b.ImmReg(uint32(f.ElemLen))

	b.Label("binloop")
	// Guarded window refill first: a decode step consumes at most 8
	// bits, so refilling whenever stream_bit_position reached 16 keeps
	// the 32-bit window sufficient; doing it at the loop top keeps the
	// refill load off the block's critical tail.
	b.GtrI(mnt, bitpos, 15)
	b.AddI(bytePos, bytePos, 2).WithGuard(mnt)
	b.AddI(bitpos, bitpos, -16).WithGuard(mnt)
	b.Ld32R(window, streamPtr, bytePos).WithGuard(mnt).InGroup(1)
	// Context fetch.
	b.ULd8R(ctxIdx, seqPtr, i).InGroup(2)
	b.AslI(toff, ctxIdx, 2)
	b.Add(ctxAddr, ctxB, toff)
	b.Ld32D(cw, ctxAddr, 0).InGroup(3)
	b.LsrI(state, cw, 16)
	b.And(mps, cw, prog.One)
	// LPS range lookup: LpsRangeTable[state][(range>>6)&3].
	b.LsrI(t2, rng, 6)
	b.And(q, t2, three)
	b.AslI(t3, state, 2)
	b.Add(t3, t3, q)
	b.ULd8R(rlps, lpsBase, t3).InGroup(4)
	b.Sub(tmp, rng, rlps)
	b.UGeq(isLPS, value, tmp)
	b.IsZero(isMPS, isLPS)
	// Both transition candidates.
	b.ULd8R(mnext, mpsnB, state).InGroup(4)
	b.ULd8R(lnext, lpsnB, state).InGroup(4)
	// Guarded MPS/LPS resolution.
	b.Sub(value, value, tmp).WithGuard(isLPS)
	b.Mov(rng, tmp).WithGuard(isMPS)
	b.Mov(rng, rlps).WithGuard(isLPS)
	b.Mov(bit, mps).WithGuard(isMPS)
	b.Xor(bit, mps, prog.One).WithGuard(isLPS)
	b.IsZero(state0, state)
	b.And(flip, state0, isLPS)
	b.Xor(mps, mps, flip)
	b.Mov(ns, mnext).WithGuard(isMPS)
	b.Mov(ns, lnext).WithGuard(isLPS)
	// Renormalization via count-leading-zeros: range is 9 bits, so the
	// shift count is clz(range) - 23, at most 7.
	b.Clz(nr, rng)
	b.AddI(nr, nr, -23)
	b.Asl(rng, rng, nr)
	b.Asl(sa, window, bitpos)
	b.Asl(va, value, nr)
	b.LsrI(sb, sa, 1)
	b.Sub(t2, c31, nr)
	b.Lsr(sb, sb, t2)
	b.Or(value, va, sb)
	b.Add(bitpos, bitpos, nr)
	// Write back the adapted context and the decoded bin.
	b.AslI(t3, ns, 16)
	b.Or(cw, t3, mps)
	b.St32D(ctxAddr, 0, cw).InGroup(3)
	b.Add(addr2, bitsPtr, i)
	b.St8D(addr2, 0, bit).InGroup(5)
	// Per-element decoder maintenance, fully predicated so the bin loop
	// stays a single block and the backward jump's delay slots fill with
	// real work ("aggressive predication", Section 3).
	b.AddI(maintCnt, maintCnt, -1)
	b.IsZero(mnt, maintCnt)
	b.Ld32D(mc1, maintB, 0).WithGuard(mnt).InGroup(6)
	b.Ld32D(mc2, maintB, 4).WithGuard(mnt).InGroup(6)
	b.Mov(maintCnt, elemLen).WithGuard(mnt)
	b.Add(mc1, mc1, bit).WithGuard(mnt)
	b.Add(mc2, mc2, state).WithGuard(mnt)
	b.Xor(mc2, mc2, ctxIdx).WithGuard(mnt)
	b.St32D(maintB, 0, mc1).WithGuard(mnt).InGroup(6)
	b.St32D(maintB, 4, mc2).WithGuard(mnt).InGroup(6)
	b.AddI(i, i, 1)
	b.ULes(cond, i, n)
	b.JmpT(cond, "binloop")
	pr := b.MustProgram()

	return &Spec{
		Name:        name,
		Description: "CABAC decode, base ISA (field type " + f.Name + ")",
		Prog:        pr,
		Args: map[prog.VReg]uint32{
			streamPtr: cabStream, seqPtr: cabSeqBase, bitsPtr: cabBitsBase,
			lpsBase: lpsTabBase, mpsnB: mpsNextBase, lpsnB: lpsNextBase,
			ctxB: cabCtxBase, maintB: cabMaint, n: uint32(d.nBins),
		},
		Init:    func(m *mem.Func) error { f.install(m, d); return nil },
		Regions: cabacRegions(f, d),
		Check:   cabacCheck(d),
	}
}

// CABACOpt builds the optimized decode workload using the TM3270
// SUPER_CABAC_STR / SUPER_CABAC_CTX operations (Table 2), with the same
// context discipline and maintenance as CABACRef.
func CABACOpt(f FieldType) *Spec {
	d := generate(f)
	name := "cabac_opt_" + strings.ToLower(f.Name)
	b := prog.NewBuilder(name)

	streamPtr, seqPtr, bitsPtr, ctxB, maintB := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	n := b.Reg()
	window, bitpos, bytePos, vr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	i, cond := b.Reg(), b.Reg()
	ctxIdx, toff, ctxAddr, cw := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	posN, bit, vrN, cwN, addr2, mnt, maintCnt := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	mc1, mc2, t := b.Reg(), b.Reg(), b.Reg()

	b.Ld32D(window, streamPtr, 0).InGroup(1)
	b.LsrI(t, window, 23)
	b.AslI(vr, t, 16)
	b.AddI(vr, vr, 510) // DUAL16(value, range=510)
	b.Imm(bitpos, 9)
	b.Imm(bytePos, 0)
	b.Imm(i, 0)
	b.Imm(maintCnt, int32ToU(int32(f.ElemLen)))
	elemLen := b.ImmReg(uint32(f.ElemLen))

	b.Label("binloop")
	// Guarded window refill at the loop top (see CABACRef).
	b.GtrI(mnt, bitpos, 15)
	b.AddI(bytePos, bytePos, 2).WithGuard(mnt)
	b.AddI(bitpos, bitpos, -16).WithGuard(mnt)
	b.Ld32R(window, streamPtr, bytePos).WithGuard(mnt).InGroup(1)
	b.ULd8R(ctxIdx, seqPtr, i).InGroup(2)
	b.AslI(toff, ctxIdx, 2)
	b.Add(ctxAddr, ctxB, toff)
	b.Ld32D(cw, ctxAddr, 0).InGroup(3)
	// The two-slot CABAC pair (both read the pre-update state).
	b.SuperCabacStr(posN, bit, vr, bitpos, cw)
	b.SuperCabacCtx(vrN, cwN, vr, bitpos, window, cw)
	b.Mov(vr, vrN)
	b.Mov(bitpos, posN)
	b.St32D(ctxAddr, 0, cwN).InGroup(3)
	b.Add(addr2, bitsPtr, i)
	b.St8D(addr2, 0, bit).InGroup(5)
	// Per-element decoder maintenance, predicated as in the reference.
	b.AddI(maintCnt, maintCnt, -1)
	b.IsZero(mnt, maintCnt)
	b.Ld32D(mc1, maintB, 0).WithGuard(mnt).InGroup(6)
	b.Ld32D(mc2, maintB, 4).WithGuard(mnt).InGroup(6)
	b.Mov(maintCnt, elemLen).WithGuard(mnt)
	b.Add(mc1, mc1, bit).WithGuard(mnt)
	b.LsrI(t, cwN, 16)
	b.Add(mc2, mc2, t).WithGuard(mnt)
	b.Xor(mc2, mc2, ctxIdx).WithGuard(mnt)
	b.St32D(maintB, 0, mc1).WithGuard(mnt).InGroup(6)
	b.St32D(maintB, 4, mc2).WithGuard(mnt).InGroup(6)
	b.AddI(i, i, 1)
	b.ULes(cond, i, n)
	b.JmpT(cond, "binloop")
	pr := b.MustProgram()

	return &Spec{
		Name:        name,
		Description: "CABAC decode, SUPER_CABAC operations (field type " + f.Name + ")",
		Prog:        pr,
		TM3270Only:  true,
		Args: map[prog.VReg]uint32{
			streamPtr: cabStream, seqPtr: cabSeqBase, bitsPtr: cabBitsBase,
			ctxB: cabCtxBase, maintB: cabMaint, n: uint32(d.nBins),
		},
		Init:    func(m *mem.Func) error { f.install(m, d); return nil },
		Regions: cabacRegions(f, d),
		Check:   cabacCheck(d),
	}
}

// cabacRegions is the decoder's memory map: the probability tables, the
// context table, the encoded stream (the refill reads whole words, so
// round up), the context-index sequence, the decoded bins and the
// maintenance counters.
func cabacRegions(f FieldType, d *cabacData) []mem.Region {
	return []mem.Region{
		region("lps-table", lpsTabBase, 256),
		region("mps-next", mpsNextBase, 64),
		region("lps-next", lpsNextBase, 64),
		region("contexts", cabCtxBase, 4*f.NCtx),
		region("stream", cabStream, (len(d.stream)+7)&^3),
		region("sequence", cabSeqBase, d.nBins),
		region("bins", cabBitsBase, d.nBins),
		region("maint", cabMaint, 8),
	}
}

// StreamBits returns the actual stream bits of a field workload built
// with the same parameters (for instructions-per-bit reporting).
func StreamBits(f FieldType) int { return generate(f).nBits }

func cabacCheck(d *cabacData) func(*mem.Func) error {
	return func(m *mem.Func) error {
		for i, want := range d.bits {
			if got := m.ByteAt(cabBitsBase + uint32(i)); got != want {
				return fmt.Errorf("cabac: bin %d = %d, want %d", i, got, want)
			}
		}
		return nil
	}
}

func int32ToU(v int32) uint32 { return uint32(v) }
