package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

const (
	fieldABase  = 0x0700_0000
	fieldBBase  = 0x0710_0680
	fieldCBase  = 0x0720_0d00
	deintBase   = 0x0730_1380
	filmResBase = 0x0740_0000
)

// filmDetThreshold is the per-pixel motion threshold of the film
// detector.
const filmDetThreshold = 24

// FilmDet is the film-detection (3:2 pulldown) algorithm of Table 5:
// it accumulates the sum of absolute differences between two successive
// fields and counts pixels whose difference exceeds a threshold, the two
// statistics a pulldown detector thresholds over a field period.
func FilmDet(p Params) *Spec {
	b := prog.NewBuilder("filmdet")
	aPtr, bPtr, res := b.Reg(), b.Reg(), b.Reg()
	cnt, cond := b.Reg(), b.Reg()
	sad, exceed := b.Reg(), b.Reg()
	wA, wB, mx, mn, d, ex, nz, t := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	thr := b.ImmReg(filmDetThreshold<<24 | filmDetThreshold<<16 | filmDetThreshold<<8 | filmDetThreshold)
	ones := b.ImmReg(0x01010101)

	b.Imm(sad, 0)
	b.Imm(exceed, 0)
	b.Label("loop")
	b.Ld32D(wA, aPtr, 0).InGroup(1)
	b.Ld32D(wB, bPtr, 0).InGroup(2)
	// Byte-wise |a-b| = max(a,b) - min(a,b): per-byte difference never
	// borrows across lanes.
	b.QuadUMax(mx, wA, wB)
	b.QuadUMin(mn, wA, wB)
	b.Sub(d, mx, mn)
	b.UME8UU(t, wA, wB)
	b.Add(sad, sad, t)
	// Per-byte exceed counting: max(d,thr)-thr is zero for bytes within
	// the threshold; clamp to one and sum the lanes with ifir8ui.
	b.QuadUMax(ex, d, thr)
	b.Sub(ex, ex, thr)
	b.QuadUMin(nz, ex, ones)
	b.IFir8UI(t, nz, ones)
	b.Add(exceed, exceed, t)
	b.AddI(aPtr, aPtr, 4)
	b.AddI(bPtr, bPtr, 4)
	b.AddI(cnt, cnt, -4)
	b.GtrI(cond, cnt, 0)
	b.JmpT(cond, "loop")
	b.St32D(res, 0, sad)
	b.St32D(res, 4, exceed)
	pr := b.MustProgram()

	n := p.ImageW * p.FieldH
	return &Spec{
		Name:        "filmdet",
		Description: "film (3:2 pulldown) detection over two fields",
		Prog:        pr,
		Args: map[prog.VReg]uint32{
			aPtr: fieldABase, bPtr: fieldBBase, res: filmResBase, cnt: uint32(n),
		},
		Regions: []mem.Region{
			region("fieldA", fieldABase, n),
			region("fieldB", fieldBBase, n),
			region("result", filmResBase, 8),
		},
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(fieldABase, p.ImageW, p.FieldH), 71)
			video.FillTestPattern(m, video.NewFrame(fieldBBase, p.ImageW, p.FieldH), 72)
			return nil
		},
		Check: func(m *mem.Func) error {
			var sad, exceed uint32
			fa, fb := m.ReadBytes(fieldABase, n), m.ReadBytes(fieldBBase, n)
			for i := range fa {
				d := int32(fa[i]) - int32(fb[i])
				if d < 0 {
					d = -d
				}
				sad += uint32(d)
				if d > filmDetThreshold {
					exceed++
				}
			}
			if got := uint32(m.Load(filmResBase, 4)); got != sad {
				return fmt.Errorf("filmdet: sad = %d, want %d", got, sad)
			}
			if got := uint32(m.Load(filmResBase+4, 4)); got != exceed {
				return fmt.Errorf("filmdet: exceed = %d, want %d", got, exceed)
			}
			return nil
		},
	}
}

// MajoritySel is the de-interlacer of Table 5: each output pixel is the
// per-byte median of three fields (the majority-select median filter),
// four pixels per iteration via the quad min/max operations.
func MajoritySel(p Params) *Spec {
	b := prog.NewBuilder("majority_sel")
	aPtr, bPtr, cPtr, oPtr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	cnt, cond := b.Reg(), b.Reg()
	wA, wB, wC, t1, t2, t3, outw := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()

	b.Label("loop")
	b.Ld32D(wA, aPtr, 0).InGroup(1)
	b.Ld32D(wB, bPtr, 0).InGroup(2)
	b.Ld32D(wC, cPtr, 0).InGroup(3)
	// median(a,b,c) = max(min(a,b), min(max(a,b), c))
	b.QuadUMin(t1, wA, wB)
	b.QuadUMax(t2, wA, wB)
	b.QuadUMin(t3, t2, wC)
	b.QuadUMax(outw, t1, t3)
	b.St32D(oPtr, 0, outw).InGroup(4)
	b.AddI(aPtr, aPtr, 4)
	b.AddI(bPtr, bPtr, 4)
	b.AddI(cPtr, cPtr, 4)
	b.AddI(oPtr, oPtr, 4)
	b.AddI(cnt, cnt, -4)
	b.GtrI(cond, cnt, 0)
	b.JmpT(cond, "loop")
	pr := b.MustProgram()

	n := p.ImageW * p.FieldH
	return &Spec{
		Name:        "majority_sel",
		Description: "majority-select de-interlacer over three fields",
		Prog:        pr,
		Args: map[prog.VReg]uint32{
			aPtr: fieldABase, bPtr: fieldBBase, cPtr: fieldCBase, oPtr: deintBase,
			cnt: uint32(n),
		},
		Regions: []mem.Region{
			region("fieldA", fieldABase, n),
			region("fieldB", fieldBBase, n),
			region("fieldC", fieldCBase, n),
			region("out", deintBase, n),
		},
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(fieldABase, p.ImageW, p.FieldH), 81)
			video.FillTestPattern(m, video.NewFrame(fieldBBase, p.ImageW, p.FieldH), 82)
			video.FillTestPattern(m, video.NewFrame(fieldCBase, p.ImageW, p.FieldH), 83)
			return nil
		},
		Check: func(m *mem.Func) error {
			fa, fb, fc := m.ReadBytes(fieldABase, n), m.ReadBytes(fieldBBase, n), m.ReadBytes(fieldCBase, n)
			out := m.ReadBytes(deintBase, n)
			for i, got := range out {
				a, bb, c := fa[i], fb[i], fc[i]
				mn, mx := a, a
				if bb < mn {
					mn = bb
				} else {
					mx = bb
				}
				med := c
				if c < mn {
					med = mn
				}
				if c > mx {
					med = mx
				}
				if got != med {
					return fmt.Errorf("majority_sel: px %d = %d, want %d (a=%d b=%d c=%d)", i, got, med, a, bb, c)
				}
			}
			return nil
		},
	}
}
