package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

const walkImgBase = 0x0c00_0000
const walkResBase = 0x0c80_0000

// BlockWalk is the Figure 3 scenario: an image processed at 4x4-block
// granularity, blocks left-to-right and top-down, summing pixel values.
// With prefetch enabled, region 0 covers the image with a stride of
// four image rows, so the next row of blocks streams into the data
// cache while the current one is processed — if processing a block row
// takes longer than prefetching the next, the walk incurs no stalls.
func BlockWalk(p Params, pf bool) *Spec {
	name := "blockwalk"
	if pf {
		name += "_pf"
	}
	w, h := p.ImageW, p.ImageH
	stride := int32(w)

	b := prog.NewBuilder(name)
	imgPtr, resPtr := b.Reg(), b.Reg()
	strideReg := b.ImmReg(uint32(stride))
	ones := b.ImmReg(0x01010101)
	acc, bxCnt, byCnt, cond := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rowPtr, blkPtr, wv, t := b.Reg(), b.Reg(), b.Reg(), b.Reg()

	if pf {
		mmio := b.ImmReg(prefetch.MMIOBase)
		b.Imm(t, walkImgBase)
		b.St32D(mmio, 0, t)
		b.Imm(t, walkImgBase+uint32(w*h))
		b.St32D(mmio, 4, t)
		b.Imm(t, uint32(4*stride)) // one block row ahead
		b.St32D(mmio, 8, t)
	}

	b.Imm(acc, 0)
	b.Imm(byCnt, 0)
	b.Mov(rowPtr, imgPtr)
	b.Label("byloop")
	b.Imm(bxCnt, 0)
	b.Mov(blkPtr, rowPtr)
	b.Label("bxloop")
	for r := 0; r < 4; r++ {
		if r == 0 {
			b.Ld32D(wv, blkPtr, 0).InGroup(1)
		} else {
			b.Ld32R(wv, blkPtr, t).InGroup(1)
		}
		if r < 3 {
			if r == 0 {
				b.Mov(t, strideReg)
			} else {
				b.Add(t, t, strideReg)
			}
		}
		b.IFir8UI(wv, wv, ones) // sum of the four bytes
		b.Add(acc, acc, wv)
	}
	b.AddI(blkPtr, blkPtr, 4)
	b.AddI(bxCnt, bxCnt, 1)
	b.LesI(cond, bxCnt, int32(w/4))
	b.JmpT(cond, "bxloop")
	b.AslI(t, strideReg, 2)
	b.Add(rowPtr, rowPtr, t)
	b.AddI(byCnt, byCnt, 1)
	b.LesI(cond, byCnt, int32(h/4))
	b.JmpT(cond, "byloop")
	b.St32D(resPtr, 0, acc)
	pr := b.MustProgram()

	return &Spec{
		Name:        name,
		Description: "4x4 block-order image walk (Figure 3 prefetch scenario)",
		Prog:        pr,
		TM3270Only:  pf,
		Args:        map[prog.VReg]uint32{imgPtr: walkImgBase, resPtr: walkResBase},
		Regions: appendMMIO(pf, []mem.Region{
			region("img", walkImgBase, w*h),
			region("result", walkResBase, 4),
		}),
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(walkImgBase, w, h), 55)
			return nil
		},
		Check: func(m *mem.Func) error {
			var want uint32
			for _, px := range m.ReadBytes(walkImgBase, w*h) {
				want += uint32(px)
			}
			if got := uint32(m.Load(walkResBase, 4)); got != want {
				return fmt.Errorf("blockwalk: sum = %d, want %d", got, want)
			}
			return nil
		},
	}
}
