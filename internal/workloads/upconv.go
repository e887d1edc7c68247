package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

// Temporal up-conversion layout.
const (
	upPrevBase = 0x0d00_0000
	upNextBase = 0x0d40_0680
	upOutBase  = 0x0d80_0d00
	upMVBase   = 0x0dc0_1380
)

// Upconv is the temporal video up-conversion workload of the paper's
// reference [14]: an interpolated frame is synthesized between two
// source frames by motion-compensated averaging — each 8x8 block reads
// a block from the previous frame displaced by +mv/2 and from the next
// frame by -mv/2 and blends them with quadavg. With prefetch enabled,
// two regions cover the source frames with a one-row stride ([14]
// reports prefetching alone buys more than 20%).
func Upconv(p Params, pf bool) *Spec {
	name := "upconv"
	if pf {
		name += "_pf"
	}
	w, h := p.ImageW, p.ImageH
	stride := int32(w)
	blocksX, blocksY := w/8, h/8

	b := prog.NewBuilder(name)
	prevPtr, nextPtr, outPtr, mvPtr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	strideReg := b.ImmReg(uint32(stride))
	rowAdv := b.ImmReg(uint32(7 * stride))
	three := b.ImmReg(3)
	bxCnt, byCnt, cond := b.Reg(), b.Reg(), b.Reg()
	mvw, mvX, mvY, t := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	pRow, nRow, oRow := b.Reg(), b.Reg(), b.Reg()
	wp, wn, wo := b.Reg(), b.Reg(), b.Reg()

	if pf {
		mmio := b.ImmReg(prefetch.MMIOBase)
		for i, base := range []uint32{upPrevBase, upNextBase} {
			off := int32(16 * i)
			b.Imm(t, base)
			b.St32D(mmio, off, t)
			b.Imm(t, base+uint32(w*h))
			b.St32D(mmio, off+4, t)
			b.St32D(mmio, off+8, strideReg)
		}
	}

	b.Imm(byCnt, 0)
	b.Label("byloop")
	b.Imm(bxCnt, 0)
	b.Label("bxloop")
	// Per-block motion vector: the forward displacement is +mv/2 into
	// the previous frame and -mv/2 into the next, both word aligned.
	b.Ld32D(mvw, mvPtr, 0).InGroup(3)
	b.AsrI(mvX, mvw, 16)
	b.AsrI(mvX, mvX, 1)
	b.AndInv(mvX, mvX, three)
	b.Sex16(mvY, mvw)
	b.AsrI(mvY, mvY, 1)
	b.Mul(t, mvY, strideReg)
	b.Add(pRow, prevPtr, t)
	b.Add(pRow, pRow, mvX)
	b.Sub(nRow, nextPtr, t)
	b.Sub(nRow, nRow, mvX)
	b.Mov(oRow, outPtr)
	for r := 0; r < 8; r++ {
		for wd := 0; wd < 2; wd++ {
			b.Ld32D(wp, pRow, int32(4*wd)).InGroup(1)
			b.Ld32D(wn, nRow, int32(4*wd)).InGroup(2)
			b.QuadAvg(wo, wp, wn)
			b.St32D(oRow, int32(4*wd), wo).InGroup(4)
		}
		b.Add(pRow, pRow, strideReg)
		b.Add(nRow, nRow, strideReg)
		b.Add(oRow, oRow, strideReg)
	}
	b.AddI(mvPtr, mvPtr, 4)
	b.AddI(prevPtr, prevPtr, 8)
	b.AddI(nextPtr, nextPtr, 8)
	b.AddI(outPtr, outPtr, 8)
	b.AddI(bxCnt, bxCnt, 1)
	b.LesI(cond, bxCnt, int32(blocksX))
	b.JmpT(cond, "bxloop")
	b.Add(prevPtr, prevPtr, rowAdv)
	b.Add(nextPtr, nextPtr, rowAdv)
	b.Add(outPtr, outPtr, rowAdv)
	b.AddI(byCnt, byCnt, 1)
	b.LesI(cond, byCnt, int32(blocksY))
	b.JmpT(cond, "byloop")
	pr := b.MustProgram()

	// Motion field: one vector per 8x8 block, clamped so both displaced
	// blocks stay inside their frames.
	mvs := video.GenerateMVField(blocksX, blocksY, 0.3, 77)
	clamped := make([][2]int, len(mvs))
	for i, mv := range mvs {
		bx, by := i%blocksX, i/blocksX
		x, y := int(mv.X), int(mv.Y)
		// After halving and alignment, |x/2| <= 8*min(bx, blocksX-1-bx).
		limX := 2 * 8 * minInt(bx, blocksX-1-bx)
		limY := 2 * 8 * minInt(by, blocksY-1-by)
		x = clampI(x, -limX, limX)
		y = clampI(y, -limY, limY)
		clamped[i] = [2]int{x, y}
	}

	return &Spec{
		Name:        name,
		Description: "motion-compensated temporal frame up-conversion ([14])",
		Prog:        pr,
		TM3270Only:  pf,
		Args: map[prog.VReg]uint32{
			prevPtr: upPrevBase, nextPtr: upNextBase,
			outPtr: upOutBase, mvPtr: upMVBase,
		},
		Regions: appendMMIO(pf, []mem.Region{
			region("prev", upPrevBase, w*h),
			region("next", upNextBase, w*h),
			region("out", upOutBase, w*h),
			region("mv", upMVBase, 4*len(mvs)),
		}),
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(upPrevBase, w, h), 61)
			video.FillTestPattern(m, video.NewFrame(upNextBase, w, h), 62)
			for i, mv := range clamped {
				m.Store(upMVBase+uint32(4*i), 2, uint64(uint16(int16(mv[0]))))
				m.Store(upMVBase+uint32(4*i)+2, 2, uint64(uint16(int16(mv[1]))))
			}
			return nil
		},
		Check: func(m *mem.Func) error {
			prev, next, out := m.ReadBytes(upPrevBase, w*h), m.ReadBytes(upNextBase, w*h), m.ReadBytes(upOutBase, w*h)
			for i, mv := range clamped {
				bx, by := i%blocksX, i/blocksX
				dx, dy := (mv[0]>>1)&^3, mv[1]>>1
				for r := 0; r < 8; r++ {
					for c := 0; c < 8; c++ {
						px, py := bx*8+c, by*8+r
						pv := uint32(prev[(py+dy)*w+px+dx])
						nv := uint32(next[(py-dy)*w+px-dx])
						want := byte((pv + nv + 1) / 2)
						if got := out[py*w+px]; got != want {
							return fmt.Errorf("upconv: block %d px (%d,%d) = %d, want %d", i, c, r, got, want)
						}
					}
				}
			}
			return nil
		},
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
