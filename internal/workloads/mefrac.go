package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

// Motion-estimation workload layout.
const (
	meCurBase = 0x0a00_0000 // current frame
	meRefBase = 0x0a80_0680 // reference frame
	meOutBase = 0x0b00_0000 // per-block (bestSAD, bestIdx) word pairs
)

// MEParams shapes the motion-estimation ablation kernel.
type MEParams struct {
	W, H     int  // frame dimensions (multiples of 8)
	UseFrac8 bool // LD_FRAC8 for the fractional stage (TM3270 extension)
	Prefetch bool // program a region over the reference frame rows
}

// MotionEst builds the motion-estimation kernel of the Section 6
// ablation ([12]): for every 8x8 block of the current frame (excluding
// a 4-pixel border), an exhaustive ±4 integer search (81 candidates)
// followed by eight fractional-x refinements at 1/16-pel resolution
// around the window center.
//
// The integer stage is identical in both variants (aligned loads shared
// across all nine dx candidates, funshift re-alignment, ume8uu SADs —
// TM3260-style optimized code). The variants differ in exactly the
// TM3270 features the paper credits with the additional >2x gain: the
// fractional stage uses LD_FRAC8 collapsed loads instead of a manual
// interpolation sequence, and the reference frame is covered by a
// hardware prefetch region.
func MotionEst(mp MEParams) *Spec {
	name := "me_ref"
	if mp.UseFrac8 {
		name = "me_frac8"
	}
	if mp.Prefetch {
		name += "_pf"
	}
	stride := int32(mp.W)
	blocksX := (mp.W - 8) / 8
	blocksY := (mp.H - 8) / 8

	b := prog.NewBuilder(name)
	curPtr, refPtr, outPtr := b.Reg(), b.Reg(), b.Reg()
	strideReg := b.ImmReg(uint32(stride))
	rowAdv := b.ImmReg(uint32(8*stride - int32(8*blocksX)))
	fracOff := b.ImmReg(uint32(4*stride + 4)) // window center offset
	big := b.ImmReg(1 << 30)
	bxCnt, byCnt, cond := b.Reg(), b.Reg(), b.Reg()

	cur := b.Regs(16) // current 8x8 block, two words per row
	w4 := b.Regs(4)   // shared aligned reference words of one row
	sadAcc := b.Regs(9)
	ra, rb, best, bestIdx, lt, idx := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rr, cc, dyc, dyc16, t, t2 := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	// Fractional-stage temporaries.
	fsad, rp, rp4, fa, fb := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	xh, xl, yh, yl, ph, pl := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	mask := b.ImmReg(0x0fff0fff)
	rnd8 := b.ImmReg(0x00080008)
	fr := b.Reg()

	if mp.Prefetch {
		// Program prefetch region 0 over the reference frame with a
		// one-row stride: while a window row is searched, the next is
		// already on its way (the Figure 3 discipline).
		mmio := b.ImmReg(prefetch.MMIOBase)
		b.Imm(t, meRefBase)
		b.St32D(mmio, 0, t)
		b.Imm(t, meRefBase+uint32(stride)*uint32(mp.H))
		b.St32D(mmio, 4, t)
		b.St32D(mmio, 8, strideReg)
	}

	b.Imm(byCnt, 0)
	b.Label("byloop")
	b.Imm(bxCnt, 0)
	b.Label("bxloop")

	// Load the current block into registers.
	b.Mov(cc, curPtr)
	for r := 0; r < 8; r++ {
		b.Ld32D(cur[2*r], cc, 0).InGroup(1)
		b.Ld32D(cur[2*r+1], cc, 4).InGroup(1)
		b.Add(cc, cc, strideReg)
	}
	b.Mov(best, big)
	b.Imm(bestIdx, 0)

	// Integer search: dy at run time, dx and rows unrolled. Each row's
	// four aligned words serve all nine dx candidates.
	b.Imm(dyc, 0)
	b.Mov(rr, refPtr)
	b.Label("dyloop")
	for dx := 0; dx < 9; dx++ {
		b.Imm(sadAcc[dx], 0)
	}
	b.Mov(cc, rr)
	for r := 0; r < 8; r++ {
		for k := 0; k < 4; k++ {
			b.Ld32D(w4[k], cc, int32(4*k)).InGroup(2)
		}
		for dx := 0; dx < 9; dx++ {
			wi, sh := dx/4, dx%4
			alignPair(b, ra, w4[wi], w4[wi+1], sh)
			// Second word: bytes dx+4..dx+7. For dx == 8 the shift is
			// zero, so the (out-of-range) upper word is never read.
			second := wi + 2
			if second > 3 {
				second = 3
			}
			alignPair(b, rb, w4[wi+1], w4[second], sh)
			b.UME8UU(t, ra, cur[2*r])
			b.Add(sadAcc[dx], sadAcc[dx], t)
			b.UME8UU(t2, rb, cur[2*r+1])
			b.Add(sadAcc[dx], sadAcc[dx], t2)
		}
		b.Add(cc, cc, strideReg)
	}
	b.AslI(dyc16, dyc, 4)
	for dx := 0; dx < 9; dx++ {
		b.ULes(lt, sadAcc[dx], best)
		b.Mov(best, sadAcc[dx]).WithGuard(lt)
		b.AddI(idx, dyc16, int32(dx))
		b.Mov(bestIdx, idx).WithGuard(lt)
	}
	b.Add(rr, rr, strideReg)
	b.AddI(dyc, dyc, 1)
	b.LesI(cond, dyc, 9)
	b.JmpT(cond, "dyloop")

	// Fractional-x refinement at the window center, 8 positions in
	// 1/16-pel steps.
	for f := 1; f < 16; f += 2 {
		b.Imm(fsad, 0)
		b.Add(rp, refPtr, fracOff)
		var k16f, kf prog.VReg
		if mp.UseFrac8 {
			b.Imm(fr, uint32(f))
		} else {
			k16f = b.ImmReg(pack16(int16(16-f), int16(16-f)))
			kf = b.ImmReg(pack16(int16(f), int16(f)))
		}
		for r := 0; r < 8; r++ {
			if mp.UseFrac8 {
				b.LdFrac8(fa, rp, fr).InGroup(2)
				b.AddI(rp4, rp, 4)
				b.LdFrac8(fb, rp4, fr).InGroup(2)
			} else {
				// Manual interpolation: (a*(16-f) + b*f + 8) >> 4 per
				// byte, lane-wise in 16-bit halves.
				b.Ld32D(w4[0], rp, 0).InGroup(2)
				b.Ld32D(w4[1], rp, 4).InGroup(2)
				b.Ld32D(w4[2], rp, 8).InGroup(2)
				interpWord(b, fa, w4[0], w4[1], k16f, kf, rnd8, mask, xh, xl, yh, yl, ph, pl)
				interpWord(b, fb, w4[1], w4[2], k16f, kf, rnd8, mask, xh, xl, yh, yl, ph, pl)
			}
			b.UME8UU(t, fa, cur[2*r])
			b.Add(fsad, fsad, t)
			b.UME8UU(t2, fb, cur[2*r+1])
			b.Add(fsad, fsad, t2)
			b.Add(rp, rp, strideReg)
		}
		b.ULes(lt, fsad, best)
		b.Mov(best, fsad).WithGuard(lt)
		b.Imm(idx, uint32(256+f))
		b.Mov(bestIdx, idx).WithGuard(lt)
	}

	// Store the block result and advance.
	b.St32D(outPtr, 0, best).InGroup(3)
	b.St32D(outPtr, 4, bestIdx).InGroup(3)
	b.AddI(outPtr, outPtr, 8)
	b.AddI(curPtr, curPtr, 8)
	b.AddI(refPtr, refPtr, 8)
	b.AddI(bxCnt, bxCnt, 1)
	b.LesI(cond, bxCnt, int32(blocksX))
	b.JmpT(cond, "bxloop")
	b.Add(curPtr, curPtr, rowAdv)
	b.Add(refPtr, refPtr, rowAdv)
	b.AddI(byCnt, byCnt, 1)
	b.LesI(cond, byCnt, int32(blocksY))
	b.JmpT(cond, "byloop")
	pr := b.MustProgram()

	return &Spec{
		Name:        name,
		Description: "8x8 motion estimation, +/-4 search with fractional refinement",
		Prog:        pr,
		TM3270Only:  mp.UseFrac8 || mp.Prefetch,
		Args: map[prog.VReg]uint32{
			curPtr: meCurBase + uint32(4*stride+4),
			refPtr: meRefBase,
			outPtr: meOutBase,
		},
		Regions: appendMMIO(mp.Prefetch, []mem.Region{
			region("cur", meCurBase, mp.W*mp.H),
			// ld_frac8 reads five bytes; pad the tail for the rightmost
			// fractional window positions.
			region("ref", meRefBase, mp.W*mp.H+8),
			region("out", meOutBase, 8*blocksX*blocksY),
		}),
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(meCurBase, mp.W, mp.H), 90)
			video.FillTestPattern(m, video.NewFrame(meRefBase, mp.W, mp.H), 91)
			return nil
		},
		Check: meCheck(mp, blocksX, blocksY),
	}
}

// alignPair emits dst = the word at byte offset sh within lo:hi.
func alignPair(b *prog.Builder, dst, lo, hi prog.VReg, sh int) {
	switch sh {
	case 0:
		b.Mov(dst, lo)
	case 1:
		b.FunShift1(dst, lo, hi)
	case 2:
		b.FunShift2(dst, lo, hi)
	default:
		b.FunShift3(dst, lo, hi)
	}
}

// interpWord emits dst = per-byte (a*(16-f) + next*f + 8) >> 4, where
// "next" is the word one byte to the right (funshift1 of a:bword).
func interpWord(b *prog.Builder, dst, a, bword, k16f, kf, rnd8, mask,
	xh, xl, yh, yl, ph, pl prog.VReg) {
	b.FunShift1(dst, a, bword) // bytes a+1..a+4
	b.MergeMSB(xh, prog.Zero, a)
	b.MergeLSB(xl, prog.Zero, a)
	b.MergeMSB(yh, prog.Zero, dst)
	b.MergeLSB(yl, prog.Zero, dst)
	b.DspDualMul(xh, xh, k16f)
	b.DspDualMul(xl, xl, k16f)
	b.DspDualMul(yh, yh, kf)
	b.DspDualMul(yl, yl, kf)
	b.Add(ph, xh, yh)
	b.Add(ph, ph, rnd8)
	b.LsrI(ph, ph, 4)
	b.And(ph, ph, mask)
	b.Add(pl, xl, yl)
	b.Add(pl, pl, rnd8)
	b.LsrI(pl, pl, 4)
	b.And(pl, pl, mask)
	b.LsrI(xh, ph, 16)
	b.PackBytes(xh, xh, ph)
	b.LsrI(xl, pl, 16)
	b.PackBytes(xl, xl, pl)
	b.Pack16LSB(dst, xh, xl)
}

// meCheck replicates the kernel's search exactly in Go.
func meCheck(mp MEParams, blocksX, blocksY int) func(*mem.Func) error {
	return func(m *mem.Func) error {
		stride := mp.W
		// The frames as the spec's regions declare them: ref carries
		// ld_frac8's 8-byte tail pad.
		cur := m.ReadBytes(meCurBase, mp.W*mp.H)
		ref := m.ReadBytes(meRefBase, mp.W*mp.H+8)
		curAt := func(x, y int) int32 { return int32(cur[y*stride+x]) }
		refAt := func(x, y int) int32 { return int32(ref[y*stride+x]) }
		blk := 0
		for by := 0; by < blocksY; by++ {
			for bx := 0; bx < blocksX; bx++ {
				cx, cy := 4+8*bx, 4+8*by
				best, bestIdx := int64(1)<<30, 0
				for dy := 0; dy < 9; dy++ {
					for dx := 0; dx < 9; dx++ {
						var sad int64
						for r := 0; r < 8; r++ {
							for c := 0; c < 8; c++ {
								d := curAt(cx+c, cy+r) - refAt(cx-4+dx+c, cy-4+dy+r)
								if d < 0 {
									d = -d
								}
								sad += int64(d)
							}
						}
						if sad < best {
							best, bestIdx = sad, dy*16+dx
						}
					}
				}
				for f := 1; f < 16; f += 2 {
					var sad int64
					for r := 0; r < 8; r++ {
						for c := 0; c < 8; c++ {
							a := refAt(cx+c, cy+r)
							nb := refAt(cx+c+1, cy+r)
							v := (a*(16-int32(f)) + nb*int32(f) + 8) >> 4
							d := curAt(cx+c, cy+r) - v
							if d < 0 {
								d = -d
							}
							sad += int64(d)
						}
					}
					if sad < best {
						best, bestIdx = sad, 256+f
					}
				}
				gotSad := uint32(m.Load(meOutBase+uint32(8*blk), 4))
				gotIdx := uint32(m.Load(meOutBase+uint32(8*blk)+4, 4))
				if int64(gotSad) != best || int(gotIdx) != bestIdx {
					return fmt.Errorf("%s: block %d best (%d,%d), want (%d,%d)",
						"me", blk, gotSad, gotIdx, best, bestIdx)
				}
				blk++
			}
		}
		return nil
	}
}
