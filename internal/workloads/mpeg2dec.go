package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/mpeg2"
	"tm3270/internal/prog"
)

// Mpeg2A/B/C are the three MPEG2 decoder runs of Table 5, differing in
// stream characteristics: mpeg2_a has a highly disruptive motion-vector
// field, mpeg2_c a smooth one. The kernel is the reconstruction loop of
// a 4:2:0 MPEG2 decoder: per macroblock, motion compensation of the
// luma and both chroma planes from the reference frame plus — for coded
// macroblocks — the fixed-point 8x8 inverse DCT of six residual blocks
// and clipped addition. The loop uses only the common TriMedia ISA
// (aligned loads, ifir16 for the IDCT dot products), so it re-compiles
// for every Figure 7 configuration.
func Mpeg2A(p Params) (*Spec, error) { return mpeg2Spec(p, mpeg2.StreamA) }

// Mpeg2B is the moderate-motion stream.
func Mpeg2B(p Params) (*Spec, error) { return mpeg2Spec(p, mpeg2.StreamB) }

// Mpeg2C is the smooth-motion stream.
func Mpeg2C(p Params) (*Spec, error) { return mpeg2Spec(p, mpeg2.StreamC) }

// Mpeg2Super is the mpeg2_b decode with the IDCT dot products on
// SUPER_DUALIMIX — the texture-pipeline ablation of reference [13]
// (TM3270 only).
func Mpeg2Super(p Params) (*Spec, error) {
	sp, err := mpeg2SpecOpt(p, mpeg2.StreamB, true)
	if err != nil {
		return nil, err
	}
	sp.Name = "mpeg2_super"
	sp.Description = "MPEG2 reconstruction with SUPER_DUALIMIX IDCT"
	sp.TM3270Only = true
	return sp, nil
}

func mpeg2Spec(p Params, s mpeg2.Stream) (*Spec, error) { return mpeg2SpecOpt(p, s, false) }

func mpeg2SpecOpt(p Params, s mpeg2.Stream, useSuper bool) (*Spec, error) {
	pr, args, err := buildMpeg2KernelOpt(p, useSuper)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", s.Name, err)
	}
	lay, err := mpeg2.NewLayout(p.Mpeg2W, p.Mpeg2H)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", s.Name, err)
	}
	return &Spec{
		Name:        s.Name,
		Description: "MPEG2 decoder reconstruction (" + s.Name + ")",
		Prog:        pr,
		Args:        args,
		Regions:     mpeg2Regions(lay, p),
		Init: func(m *mem.Func) error {
			if _, err := mpeg2.Build(m, p.Mpeg2W, p.Mpeg2H, s); err != nil {
				return fmt.Errorf("workloads: %s init: %w", s.Name, err)
			}
			return nil
		},
		Check: func(m *mem.Func) error {
			want := mpeg2.Expected(mpeg2.InitialRef(lay, s), m, lay, frames(p))
			yb, cbb, crb := lay.FinalBases(frames(p))
			if err := checkRegion(m, yb, want.Y, s.Name+" luma"); err != nil {
				return err
			}
			if err := checkRegion(m, cbb, want.Cb, s.Name+" Cb"); err != nil {
				return err
			}
			return checkRegion(m, crb, want.Cr, s.Name+" Cr")
		},
	}, nil
}

// mpeg2Regions is the decoder's memory map: both luma frames and the
// four chroma planes (reconstruction ping-pongs between them across
// chained frames), the per-macroblock motion vectors, coded flags and
// residual coefficients, and the two IDCT scratch blocks.
func mpeg2Regions(l *mpeg2.Layout, p Params) []mem.Region {
	luma := p.Mpeg2W * p.Mpeg2H
	chroma := luma / 4
	mbs := l.NumMBs()
	return []mem.Region{
		region("ref", l.Ref.Base, luma),
		region("out", l.Out.Base, luma),
		region("refCb", l.RefCb.Base, chroma),
		region("refCr", l.RefCr.Base, chroma),
		region("outCb", l.OutCb.Base, chroma),
		region("outCr", l.OutCr.Base, chroma),
		region("mv", l.MVBase, 4*mbs),
		region("coded", l.Coded, mbs),
		region("coeff", l.Coeff, mpeg2.MBCoeffBytes*mbs),
		region("scratch", l.Scratch, 256),
	}
}

// Memory alias groups of the decoder kernel.
const (
	grpRef    = 1
	grpOut    = 2
	grpCoeff  = 3
	grpScr1   = 4
	grpScr2   = 5
	grpStream = 6
)

// mpeg2Regs bundles the registers shared by the emit helpers.
type mpeg2Regs struct {
	b        *prog.Builder
	kE, kO   [4][2]prog.VReg
	colRound prog.VReg
	scr1     prog.VReg
	scr2     prog.VReg
	// super selects SUPER_DUALIMIX for the IDCT dot products instead of
	// ifir16 pairs — the MPEG2 8x8 texture-pipeline optimization of
	// reference [13] of the paper.
	super bool
	d2    prog.VReg

	p02, p46, p13, p57     prog.VReg
	q02, q46, q13, q57     prog.VReg
	e, o                   []prog.VReg
	t, ta, tb, ya, yb      prog.VReg
	wrow                   []prog.VReg
	hh, ll, a0, a1, t1, t2 prog.VReg
	outw                   prog.VReg
}

// dot4 emits dst = s1.hi*k1.hi + s1.lo*k1.lo + s2.hi*k2.hi + s2.lo*k2.lo,
// either as two ifir16 plus an add, or as one two-slot SUPER_DUALIMIX
// plus an add (same value: the super partitions the four products into
// high-lane and low-lane pairs, each clipped to 32 bits — a no-op for
// IDCT magnitudes).
func (r *mpeg2Regs) dot4(dst, s1, k1, s2, k2 prog.VReg) {
	b := r.b
	if r.super {
		b.SuperDualIMix(dst, r.d2, s1, k1, s2, k2)
		b.Add(dst, dst, r.d2)
		return
	}
	b.IFir16(dst, s1, k1)
	b.IFir16(r.t, s2, k2)
	b.Add(dst, dst, r.t)
}

// emitIDCT emits the two-pass fixed-point IDCT of the coefficient block
// at coeffPtr+disp into scratch block scr2 (16-bit, row-major).
func (r *mpeg2Regs) emitIDCT(coeffPtr prog.VReg, disp int32) {
	b := r.b
	// Row pass: even/odd-split coefficient rows -> scr1.
	for row := 0; row < 8; row++ {
		d := disp + int32(16*row)
		b.Ld32D(r.p02, coeffPtr, d+0).InGroup(grpCoeff)
		b.Ld32D(r.p46, coeffPtr, d+4).InGroup(grpCoeff)
		b.Ld32D(r.p13, coeffPtr, d+8).InGroup(grpCoeff)
		b.Ld32D(r.p57, coeffPtr, d+12).InGroup(grpCoeff)
		for i := 0; i < 4; i++ {
			r.dot4(r.e[i], r.p02, r.kE[i][0], r.p46, r.kE[i][1])
			r.dot4(r.o[i], r.p13, r.kO[i][0], r.p57, r.kO[i][1])
		}
		for i := 0; i < 4; i++ {
			b.Add(r.ta, r.e[i], r.o[i])
			b.AddI(r.ta, r.ta, 1<<(mpeg2.RowShift-1))
			b.AsrI(r.ta, r.ta, mpeg2.RowShift)
			b.Sub(r.tb, r.e[i], r.o[i])
			b.AddI(r.tb, r.tb, 1<<(mpeg2.RowShift-1))
			b.AsrI(r.tb, r.tb, mpeg2.RowShift)
			b.St16D(r.scr1, int32(16*row+2*i), r.ta).InGroup(grpScr1)
			b.St16D(r.scr1, int32(16*row+2*(7-i)), r.tb).InGroup(grpScr1)
		}
	}
	// Column pass: scr1 -> scr2, two columns at a time.
	for j := 0; j < 8; j += 2 {
		for row := 0; row < 8; row++ {
			b.Ld32D(r.wrow[row], r.scr1, int32(16*row+2*j)).InGroup(grpScr1)
		}
		b.Pack16MSB(r.p02, r.wrow[0], r.wrow[2])
		b.Pack16MSB(r.p46, r.wrow[4], r.wrow[6])
		b.Pack16MSB(r.p13, r.wrow[1], r.wrow[3])
		b.Pack16MSB(r.p57, r.wrow[5], r.wrow[7])
		b.Pack16LSB(r.q02, r.wrow[0], r.wrow[2])
		b.Pack16LSB(r.q46, r.wrow[4], r.wrow[6])
		b.Pack16LSB(r.q13, r.wrow[1], r.wrow[3])
		b.Pack16LSB(r.q57, r.wrow[5], r.wrow[7])
		for half := 0; half < 2; half++ {
			a, bq, cq, dq := r.p02, r.p46, r.p13, r.p57
			if half == 1 {
				a, bq, cq, dq = r.q02, r.q46, r.q13, r.q57
			}
			for i := 0; i < 4; i++ {
				r.dot4(r.e[i], a, r.kE[i][0], bq, r.kE[i][1])
				r.dot4(r.o[i], cq, r.kO[i][0], dq, r.kO[i][1])
			}
			for i := 0; i < 4; i++ {
				b.Add(r.ya, r.e[i], r.o[i])
				b.Add(r.ya, r.ya, r.colRound)
				b.AsrI(r.ya, r.ya, mpeg2.ColShift)
				b.ClipI(r.ya, r.ya, 8)
				b.Sub(r.yb, r.e[i], r.o[i])
				b.Add(r.yb, r.yb, r.colRound)
				b.AsrI(r.yb, r.yb, mpeg2.ColShift)
				b.ClipI(r.yb, r.yb, 8)
				b.St16D(r.scr2, int32(16*i+2*j+2*half), r.ya).InGroup(grpScr2)
				b.St16D(r.scr2, int32(16*(7-i)+2*j+2*half), r.yb).InGroup(grpScr2)
			}
		}
	}
}

// emitRecon emits eight rows of ref+residual reconstruction from scr2
// into the output, advancing rowRef/rowOut by strideReg per row.
func (r *mpeg2Regs) emitRecon(rowRef, rowOut, strideReg prog.VReg) {
	b := r.b
	for row := 0; row < 8; row++ {
		b.Ld32D(r.p02, rowRef, 0).InGroup(grpRef)
		b.Ld32D(r.p46, rowRef, 4).InGroup(grpRef)
		b.Ld32D(r.wrow[0], r.scr2, int32(16*row+0)).InGroup(grpScr2)
		b.Ld32D(r.wrow[1], r.scr2, int32(16*row+4)).InGroup(grpScr2)
		b.Ld32D(r.wrow[2], r.scr2, int32(16*row+8)).InGroup(grpScr2)
		b.Ld32D(r.wrow[3], r.scr2, int32(16*row+12)).InGroup(grpScr2)
		for half := 0; half < 2; half++ {
			refW, sa, sb := r.p02, r.wrow[0], r.wrow[1]
			if half == 1 {
				refW, sa, sb = r.p46, r.wrow[2], r.wrow[3]
			}
			b.MergeMSB(r.hh, prog.Zero, refW)
			b.MergeLSB(r.ll, prog.Zero, refW)
			b.DspDualAdd(r.a0, r.hh, sa)
			b.DspDualAdd(r.a1, r.ll, sb)
			b.DualUClipI(r.a0, r.a0, 8)
			b.DualUClipI(r.a1, r.a1, 8)
			b.LsrI(r.t1, r.a0, 16)
			b.PackBytes(r.t1, r.t1, r.a0)
			b.LsrI(r.t2, r.a1, 16)
			b.PackBytes(r.t2, r.t2, r.a1)
			b.Pack16LSB(r.outw, r.t1, r.t2)
			b.St32D(rowOut, int32(4*half), r.outw).InGroup(grpOut)
		}
		b.Add(rowRef, rowRef, strideReg)
		b.Add(rowOut, rowOut, strideReg)
	}
}

// emitCopy emits a plain motion-compensation copy of rows x words.
func (r *mpeg2Regs) emitCopy(rowRef, rowOut, strideReg prog.VReg, rows, words int) {
	b := r.b
	for row := 0; row < rows; row++ {
		for wd := 0; wd < words; wd++ {
			b.Ld32D(r.wrow[wd], rowRef, int32(4*wd)).InGroup(grpRef)
		}
		for wd := 0; wd < words; wd++ {
			b.St32D(rowOut, int32(4*wd), r.wrow[wd]).InGroup(grpOut)
		}
		b.Add(rowRef, rowRef, strideReg)
		b.Add(rowOut, rowOut, strideReg)
	}
}

// frames returns the chained frame count (at least 1).
func frames(p Params) int {
	if p.Mpeg2Frames > 0 {
		return p.Mpeg2Frames
	}
	return 1
}

// buildMpeg2KernelOpt optionally uses SUPER_DUALIMIX in the IDCT.
func buildMpeg2KernelOpt(p Params, useSuper bool) (*prog.Program, map[prog.VReg]uint32, error) {
	w, h := p.Mpeg2W, p.Mpeg2H
	stride := int32(w)
	cstride := stride / 2
	mbW, mbH := w/16, h/16

	b := prog.NewBuilder("mpeg2")

	// Arguments.
	mvPtr, codedPtr, coeffPtr := b.Reg(), b.Reg(), b.Reg()
	outMB, refOff := b.Reg(), b.Reg() // refOff = refBase - outBase
	outCbMB, outCrMB := b.Reg(), b.Reg()
	refCbOff, refCrOff := b.Reg(), b.Reg()
	scr1, scr2 := b.Reg(), b.Reg()
	// Frame chaining state: saved stream pointers and the current output
	// bases (output and reference regions swap between frames).
	frameCnt, mvStart, codedStart, coeffStart := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	outStartY, outStartCb, outStartCr := b.Reg(), b.Reg(), b.Reg()

	// Constants.
	strideReg := b.ImmReg(uint32(stride))
	cStrideReg := b.ImmReg(uint32(cstride))
	rowAdv := b.ImmReg(uint32(15 * stride))
	cRowAdv := b.ImmReg(uint32(7 * cstride))
	blkStride8 := b.ImmReg(uint32(8 * stride))
	three := b.ImmReg(3)
	r := &mpeg2Regs{
		b:        b,
		colRound: b.ImmReg(1 << (mpeg2.ColShift - 1)),
		scr1:     scr1,
		scr2:     scr2,
		super:    useSuper,
		d2:       b.Reg(),
	}
	c := mpeg2.Cos
	k := func(hi, lo int32) prog.VReg { return b.ImmReg(pack16(int16(hi), int16(lo))) }
	r.kE = [4][2]prog.VReg{
		{k(c[4], c[2]), k(c[4], c[6])},
		{k(c[4], c[6]), k(-c[4], -c[2])},
		{k(c[4], -c[6]), k(-c[4], c[2])},
		{k(c[4], -c[2]), k(c[4], -c[6])},
	}
	r.kO = [4][2]prog.VReg{
		{k(c[1], c[3]), k(c[5], c[7])},
		{k(c[3], -c[7]), k(-c[1], -c[5])},
		{k(c[5], -c[1]), k(c[7], c[3])},
		{k(c[7], -c[5]), k(c[3], -c[1])},
	}
	r.p02, r.p46, r.p13, r.p57 = b.Reg(), b.Reg(), b.Reg(), b.Reg()
	r.q02, r.q46, r.q13, r.q57 = b.Reg(), b.Reg(), b.Reg(), b.Reg()
	r.e, r.o = b.Regs(4), b.Regs(4)
	r.t, r.ta, r.tb, r.ya, r.yb = b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	r.wrow = b.Regs(8)
	r.hh, r.ll, r.a0, r.a1, r.t1, r.t2 = b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	r.outw = b.Reg()

	// Loop counters and per-MB state.
	mbx, mby, cond := b.Reg(), b.Reg(), b.Reg()
	mvw, mvX, mvY, cmvX, cmvY, coded, g := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	refMB, refCbMB, refCrMB, t := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rowRef, rowOut := b.Reg(), b.Reg()

	b.Mov(mvStart, mvPtr)
	b.Mov(codedStart, codedPtr)
	b.Mov(coeffStart, coeffPtr)
	b.Mov(outStartY, outMB)
	b.Mov(outStartCb, outCbMB)
	b.Mov(outStartCr, outCrMB)
	b.Label("frameloop")
	b.Imm(mby, 0)
	b.Label("mbrow")
	b.Imm(mbx, 0)
	b.Label("mbloop")

	// Per-MB header: motion vector, coded flag, reference addresses.
	b.Ld32D(mvw, mvPtr, 0).InGroup(grpStream)
	b.ULd8D(coded, codedPtr, 0).InGroup(grpStream)
	b.AsrI(mvX, mvw, 16)
	b.Sex16(mvY, mvw)
	b.Mul(t, mvY, strideReg)
	b.Add(refMB, outMB, refOff)
	b.Add(refMB, refMB, t)
	b.Add(refMB, refMB, mvX)
	// Chroma vector: halved, horizontally word-aligned.
	b.AsrI(cmvX, mvX, 1)
	b.AndInv(cmvX, cmvX, three)
	b.AsrI(cmvY, mvY, 1)
	b.Mul(t, cmvY, cStrideReg)
	b.Add(refCbMB, outCbMB, refCbOff)
	b.Add(refCbMB, refCbMB, t)
	b.Add(refCbMB, refCbMB, cmvX)
	b.Add(refCrMB, outCrMB, refCrOff)
	b.Add(refCrMB, refCrMB, t)
	b.Add(refCrMB, refCrMB, cmvX)
	b.NonZero(g, coded)
	b.JmpF(g, "copy")

	// ---- Coded path: 4 luma + 2 chroma blocks of IDCT + recon. ----
	for blk := 0; blk < 4; blk++ {
		bx, by := blk%2, blk/2
		r.emitIDCT(coeffPtr, int32(blk*mpeg2.BlockCoeffBytes))
		if by == 1 {
			b.Add(rowRef, refMB, blkStride8)
			b.Add(rowOut, outMB, blkStride8)
		} else {
			b.Mov(rowRef, refMB)
			b.Mov(rowOut, outMB)
		}
		if bx == 1 {
			b.AddI(rowRef, rowRef, 8)
			b.AddI(rowOut, rowOut, 8)
		}
		r.emitRecon(rowRef, rowOut, strideReg)
	}
	r.emitIDCT(coeffPtr, int32(4*mpeg2.BlockCoeffBytes))
	b.Mov(rowRef, refCbMB)
	b.Mov(rowOut, outCbMB)
	r.emitRecon(rowRef, rowOut, cStrideReg)
	r.emitIDCT(coeffPtr, int32(5*mpeg2.BlockCoeffBytes))
	b.Mov(rowRef, refCrMB)
	b.Mov(rowOut, outCrMB)
	r.emitRecon(rowRef, rowOut, cStrideReg)
	b.Jmp("mbnext")

	// ---- Copy path: plain motion compensation of all planes. ----
	b.Label("copy")
	b.Mov(rowRef, refMB)
	b.Mov(rowOut, outMB)
	r.emitCopy(rowRef, rowOut, strideReg, 16, 4)
	b.Mov(rowRef, refCbMB)
	b.Mov(rowOut, outCbMB)
	r.emitCopy(rowRef, rowOut, cStrideReg, 8, 2)
	b.Mov(rowRef, refCrMB)
	b.Mov(rowOut, outCrMB)
	r.emitCopy(rowRef, rowOut, cStrideReg, 8, 2)

	b.Label("mbnext")
	b.AddI(mvPtr, mvPtr, 4)
	b.AddI(codedPtr, codedPtr, 1)
	b.AddI(coeffPtr, coeffPtr, mpeg2.MBCoeffBytes)
	b.AddI(outMB, outMB, 16)
	b.AddI(outCbMB, outCbMB, 8)
	b.AddI(outCrMB, outCrMB, 8)
	b.AddI(mbx, mbx, 1)
	b.LesI(cond, mbx, int32(mbW))
	b.JmpT(cond, "mbloop")
	b.Add(outMB, outMB, rowAdv)
	b.Add(outCbMB, outCbMB, cRowAdv)
	b.Add(outCrMB, outCrMB, cRowAdv)
	b.AddI(mby, mby, 1)
	b.LesI(cond, mby, int32(mbH))
	b.JmpT(cond, "mbrow")

	// Next frame: the frame just written becomes the reference, the old
	// reference region becomes the output; the stream pointers rewind
	// (each frame re-uses the same vectors and residuals).
	b.AddI(frameCnt, frameCnt, -1)
	b.Mov(mvPtr, mvStart)
	b.Mov(codedPtr, codedStart)
	b.Mov(coeffPtr, coeffStart)
	for _, sw := range [][3]prog.VReg{
		{outStartY, refOff, outMB},
		{outStartCb, refCbOff, outCbMB},
		{outStartCr, refCrOff, outCrMB},
	} {
		start, off, cur := sw[0], sw[1], sw[2]
		b.Add(start, start, off)   // new output = old reference base
		b.Sub(off, prog.Zero, off) // ref offset flips sign
		b.Mov(cur, start)
		_ = cur
	}
	b.GtrI(cond, frameCnt, 0)
	b.JmpT(cond, "frameloop")

	pr := b.MustProgram()

	// The layout addresses are package constants of internal/mpeg2:
	// bind them from a probe layout (no memory image needed).
	l, err := mpeg2.NewLayout(p.Mpeg2W, p.Mpeg2H)
	if err != nil {
		return nil, nil, err
	}
	args := map[prog.VReg]uint32{
		// Decremented before the loop-back test, so it starts at the
		// full frame count.
		frameCnt: uint32(frames(p)),
		mvPtr:    l.MVBase,
		codedPtr: l.Coded,
		coeffPtr: l.Coeff,
		outMB:    l.Out.Base,
		refOff:   l.Ref.Base - l.Out.Base,
		outCbMB:  l.OutCb.Base,
		outCrMB:  l.OutCr.Base,
		refCbOff: l.RefCb.Base - l.OutCb.Base,
		refCrOff: l.RefCr.Base - l.OutCr.Base,
		scr1:     l.Scratch,
		scr2:     l.Scratch + 128,
	}
	return pr, args, nil
}
