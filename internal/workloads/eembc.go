package workloads

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/video"
)

// Planar image bases of the EEMBC-style kernels.
const (
	// Stream bases are staggered by multiples of 13 cache lines so
	// concurrent planar streams do not collide on the same cache sets
	// (real buffers are not set-aligned either).
	imgRBase = 0x0600_0000
	imgGBase = 0x0610_0680
	imgBBase = 0x0620_0d00
	outYBase = 0x0630_1380
	outUBase = 0x0640_1a00
	outVBase = 0x0650_2080
	grayIn   = 0x0660_0000
	grayOut  = 0x0670_0680
	cmykBase = 0x0680_0d00
)

func initRGB(p Params) func(*mem.Func) error {
	return func(m *mem.Func) error {
		video.FillTestPattern(m, video.NewFrame(imgRBase, p.ImageW, p.ImageH), 101)
		video.FillTestPattern(m, video.NewFrame(imgGBase, p.ImageW, p.ImageH), 202)
		video.FillTestPattern(m, video.NewFrame(imgBBase, p.ImageW, p.ImageH), 303)
		return nil
	}
}

// rgbRegions declares the three input planes of the RGB kernels.
func rgbRegions(p Params) []mem.Region {
	n := p.ImageW * p.ImageH
	return []mem.Region{
		region("r", imgRBase, n),
		region("g", imgGBase, n),
		region("b", imgBBase, n),
	}
}

// planarOutRegions declares the three planar output components.
func planarOutRegions(p Params) []mem.Region {
	n := p.ImageW * p.ImageH
	return []mem.Region{
		region("out0", outYBase, n),
		region("out1", outUBase, n),
		region("out2", outVBase, n),
	}
}

func rgbAt(m *mem.Func, p Params, i int) (int32, int32, int32) {
	return int32(m.ByteAt(imgRBase + uint32(i))),
		int32(m.ByteAt(imgGBase + uint32(i))),
		int32(m.ByteAt(imgBBase + uint32(i)))
}

// Filter is the EEMBC-style 3x3 high-pass (sharpen) gray filter:
// out = clip8(5*c - up - down - left - right) over the image interior.
func Filter(p Params) *Spec {
	b := prog.NewBuilder("filter")
	w := int32(p.ImageW)

	rUp, rCur, rDn, rOut := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rows, xi, cond := b.Reg(), b.Reg(), b.Reg()
	aC, aU, aD, aO := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	cur, up, dn, nxt, prv, lft, rgt := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	hC, lC, hU, lU, hD, lD, hL, lL, hR, lR := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	c5h, c5l, sh, sl, dh, dl, t1, t2, outw := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()

	b.Label("rowloop")
	b.Imm(xi, 4)
	b.Label("xloop")
	b.Add(aC, rCur, xi)
	b.Add(aU, rUp, xi)
	b.Add(aD, rDn, xi)
	b.Add(aO, rOut, xi)
	b.Ld32D(cur, aC, 0).InGroup(1)
	b.Ld32D(prv, aC, -4).InGroup(1)
	b.Ld32D(nxt, aC, 4).InGroup(1)
	b.Ld32D(up, aU, 0).InGroup(1)
	b.Ld32D(dn, aD, 0).InGroup(1)
	b.FunShift3(lft, prv, cur)
	b.FunShift1(rgt, cur, nxt)
	// Expand bytes to 2x16 lanes.
	for _, e := range [][3]prog.VReg{{cur, hC, lC}, {up, hU, lU}, {dn, hD, lD}, {lft, hL, lL}, {rgt, hR, lR}} {
		b.MergeMSB(e[1], prog.Zero, e[0])
		b.MergeLSB(e[2], prog.Zero, e[0])
	}
	// 5*c: lanes stay below 2^16, so a whole-word shift is lane-safe.
	b.AslI(c5h, hC, 2)
	b.Add(c5h, c5h, hC)
	b.AslI(c5l, lC, 2)
	b.Add(c5l, c5l, lC)
	b.Add(sh, hU, hD)
	b.Add(t1, hL, hR)
	b.Add(sh, sh, t1)
	b.Add(sl, lU, lD)
	b.Add(t2, lL, lR)
	b.Add(sl, sl, t2)
	// Per-lane signed subtract, then clip to [0,255].
	b.DspDualSub(dh, c5h, sh)
	b.DspDualSub(dl, c5l, sl)
	b.DualUClipI(dh, dh, 8)
	b.DualUClipI(dl, dl, 8)
	// Pack the four lanes back into bytes.
	b.LsrI(t1, dh, 16)
	b.PackBytes(t1, t1, dh)
	b.LsrI(t2, dl, 16)
	b.PackBytes(t2, t2, dl)
	b.Pack16LSB(outw, t1, t2)
	b.St32D(aO, 0, outw).InGroup(2)
	b.AddI(xi, xi, 4)
	b.LesI(cond, xi, w-8)
	b.JmpT(cond, "xloop")
	// Advance row pointers.
	b.AddI(rUp, rUp, w)
	b.AddI(rCur, rCur, w)
	b.AddI(rDn, rDn, w)
	b.AddI(rOut, rOut, w)
	b.AddI(rows, rows, -1)
	b.GtrI(cond, rows, 0)
	b.JmpT(cond, "rowloop")
	pr := b.MustProgram()

	return &Spec{
		Name:        "filter",
		Description: "3x3 high-pass gray filter (EEMBC consumer)",
		Prog:        pr,
		Args: map[prog.VReg]uint32{
			rUp:  grayIn,
			rCur: grayIn + uint32(p.ImageW),
			rDn:  grayIn + uint32(2*p.ImageW),
			rOut: grayOut + uint32(p.ImageW),
			rows: uint32(p.ImageH - 2),
		},
		Init: func(m *mem.Func) error {
			video.FillTestPattern(m, video.NewFrame(grayIn, p.ImageW, p.ImageH), 404)
			return nil
		},
		Regions: []mem.Region{
			region("in", grayIn, p.ImageW*p.ImageH),
			region("out", grayOut, p.ImageW*p.ImageH),
		},
		Check: func(m *mem.Func) error {
			in, out := m.ReadBytes(grayIn, p.ImageW*p.ImageH), m.ReadBytes(grayOut, p.ImageW*p.ImageH)
			at := func(x, y int) int32 { return int32(in[y*p.ImageW+x]) }
			for y := 1; y < p.ImageH-1; y++ {
				for x := 4; x < p.ImageW-8; x++ {
					want := clip8(5*at(x, y) - at(x, y-1) - at(x, y+1) - at(x-1, y) - at(x+1, y))
					if got := out[y*p.ImageW+x]; got != want {
						return fmt.Errorf("filter: pixel (%d,%d) = %d, want %d", x, y, got, want)
					}
				}
			}
			return nil
		},
	}
}

// colorKernel builds a per-pixel color-space conversion using ifir16
// dot products: comp = clip(((hiCoef·(r,g) + loCoef·(b,1)) >> 8) + off).
type colorComp struct {
	coefRG, coefB1 uint32 // DUAL16 coefficient pairs (rounding in B1.lo)
	offset         int32
	signedOut      bool
	outBase        uint32
}

func buildColorKernel(name string, p Params, comps []colorComp) (*prog.Program, map[prog.VReg]uint32) {
	b := prog.NewBuilder(name)
	rPtr, gPtr, bPtr := b.Reg(), b.Reg(), b.Reg()
	cnt, cond := b.Reg(), b.Reg()
	outPtr := b.Regs(len(comps))
	coefA := make([]prog.VReg, len(comps))
	coefB := make([]prog.VReg, len(comps))
	for i, c := range comps {
		coefA[i] = b.ImmReg(c.coefRG)
		coefB[i] = b.ImmReg(c.coefB1)
	}
	idx := make([]prog.VReg, 4)
	for i := range idx {
		idx[i] = b.ImmReg(uint32(i))
	}
	rW, gW, bW := b.Reg(), b.Reg(), b.Reg()
	rr, gg, bb, prg, pb1, acc, t := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	pix := make([][]prog.VReg, len(comps))
	for i := range pix {
		pix[i] = b.Regs(4)
	}
	t1, t2, outw := b.Reg(), b.Reg(), b.Reg()

	b.Label("loop")
	b.Ld32D(rW, rPtr, 0).InGroup(1)
	b.Ld32D(gW, gPtr, 0).InGroup(1)
	b.Ld32D(bW, bPtr, 0).InGroup(1)
	for px := 0; px < 4; px++ {
		b.UByteSel(rr, rW, idx[3-px]) // byte 0 of the word is index 3
		b.UByteSel(gg, gW, idx[3-px])
		b.UByteSel(bb, bW, idx[3-px])
		b.Pack16LSB(prg, rr, gg)
		b.Pack16LSB(pb1, bb, prog.One)
		for ci, c := range comps {
			b.IFir16(acc, prg, coefA[ci])
			b.IFir16(t, pb1, coefB[ci])
			b.Add(acc, acc, t)
			b.AsrI(acc, acc, 8)
			if c.offset != 0 {
				b.AddI(acc, acc, c.offset)
			}
			if c.signedOut {
				b.ClipI(pix[ci][px], acc, 7)
			} else {
				b.UClipI(pix[ci][px], acc, 8)
			}
		}
	}
	for ci := range comps {
		b.PackBytes(t1, pix[ci][0], pix[ci][1])
		b.PackBytes(t2, pix[ci][2], pix[ci][3])
		b.Pack16LSB(outw, t1, t2)
		b.St32D(outPtr[ci], 0, outw).InGroup(2)
		b.AddI(outPtr[ci], outPtr[ci], 4)
	}
	b.AddI(rPtr, rPtr, 4)
	b.AddI(gPtr, gPtr, 4)
	b.AddI(bPtr, bPtr, 4)
	b.AddI(cnt, cnt, -4)
	b.GtrI(cond, cnt, 0)
	b.JmpT(cond, "loop")

	args := map[prog.VReg]uint32{
		rPtr: imgRBase, gPtr: imgGBase, bPtr: imgBBase,
		cnt: uint32(p.ImageW * p.ImageH),
	}
	for i, c := range comps {
		args[outPtr[i]] = c.outBase
	}
	return b.MustProgram(), args
}

// RGB2YUV converts planar RGB to planar YUV (EEMBC consumer suite).
func RGB2YUV(p Params) *Spec {
	comps := []colorComp{
		{pack16(66, 129), pack16(25, 128), 16, false, outYBase},
		{pack16(-38, -74), pack16(112, 128), 128, false, outUBase},
		{pack16(112, -94), pack16(-18, 128), 128, false, outVBase},
	}
	pr, args := buildColorKernel("rgb2yuv", p, comps)
	n := p.ImageW * p.ImageH
	return &Spec{
		Name:        "rgb2yuv",
		Description: "RGB to YUV color conversion (EEMBC consumer)",
		Prog:        pr,
		Args:        args,
		Init:        initRGB(p),
		Regions:     append(rgbRegions(p), planarOutRegions(p)...),
		Check: func(m *mem.Func) error {
			for i := 0; i < n; i++ {
				r, g, bb := rgbAt(m, p, i)
				wantY := clip8((66*r+129*g+25*bb+128)>>8 + 16)
				wantU := clip8((-38*r-74*g+112*bb+128)>>8 + 128)
				wantV := clip8((112*r-94*g-18*bb+128)>>8 + 128)
				if got := m.ByteAt(outYBase + uint32(i)); got != wantY {
					return fmt.Errorf("rgb2yuv: Y[%d] = %d, want %d", i, got, wantY)
				}
				if got := m.ByteAt(outUBase + uint32(i)); got != wantU {
					return fmt.Errorf("rgb2yuv: U[%d] = %d, want %d", i, got, wantU)
				}
				if got := m.ByteAt(outVBase + uint32(i)); got != wantV {
					return fmt.Errorf("rgb2yuv: V[%d] = %d, want %d", i, got, wantV)
				}
			}
			return nil
		},
	}
}

// RGB2YIQ converts planar RGB to YIQ (EEMBC consumer suite). I and Q
// are signed and clipped to [-128,127].
func RGB2YIQ(p Params) *Spec {
	comps := []colorComp{
		{pack16(77, 150), pack16(29, 128), 0, false, outYBase},
		{pack16(153, -70), pack16(-83, 128), 0, true, outUBase},
		{pack16(54, -134), pack16(80, 128), 0, true, outVBase},
	}
	pr, args := buildColorKernel("rgb2yiq", p, comps)
	n := p.ImageW * p.ImageH
	return &Spec{
		Name:        "rgb2yiq",
		Description: "RGB to YIQ color conversion (EEMBC consumer)",
		Prog:        pr,
		Args:        args,
		Init:        initRGB(p),
		Regions:     append(rgbRegions(p), planarOutRegions(p)...),
		Check: func(m *mem.Func) error {
			for i := 0; i < n; i++ {
				r, g, bb := rgbAt(m, p, i)
				wantY := clip8((77*r + 150*g + 29*bb + 128) >> 8)
				wantI := clipS8((153*r - 70*g - 83*bb + 128) >> 8)
				wantQ := clipS8((54*r - 134*g + 80*bb + 128) >> 8)
				if got := m.ByteAt(outYBase + uint32(i)); got != wantY {
					return fmt.Errorf("rgb2yiq: Y[%d] = %d, want %d", i, got, wantY)
				}
				if got := m.ByteAt(outUBase + uint32(i)); got != wantI {
					return fmt.Errorf("rgb2yiq: I[%d] = %d, want %d", i, int8(got), int8(wantI))
				}
				if got := m.ByteAt(outVBase + uint32(i)); got != wantQ {
					return fmt.Errorf("rgb2yiq: Q[%d] = %d, want %d", i, int8(got), int8(wantQ))
				}
			}
			return nil
		},
	}
}

// RGB2CMYK converts planar RGB to interleaved CMYK (EEMBC consumer
// suite): k = 255 - max(r,g,b); c,m,y = max - r,g,b.
func RGB2CMYK(p Params) *Spec {
	b := prog.NewBuilder("rgb2cmyk")
	rPtr, gPtr, bPtr, oPtr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	cnt, cond, c255 := b.Reg(), b.Reg(), b.ImmReg(255)
	idx := make([]prog.VReg, 4)
	for i := range idx {
		idx[i] = b.ImmReg(uint32(i))
	}
	rW, gW, bW := b.Reg(), b.Reg(), b.Reg()
	rr, gg, bb, mx, kk, cc, mm, yy, t1, t2, outw := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()

	b.Label("loop")
	b.Ld32D(rW, rPtr, 0).InGroup(1)
	b.Ld32D(gW, gPtr, 0).InGroup(1)
	b.Ld32D(bW, bPtr, 0).InGroup(1)
	for px := 0; px < 4; px++ {
		b.UByteSel(rr, rW, idx[3-px])
		b.UByteSel(gg, gW, idx[3-px])
		b.UByteSel(bb, bW, idx[3-px])
		b.Max(mx, rr, gg)
		b.Max(mx, mx, bb)
		b.Sub(kk, c255, mx)
		b.Sub(cc, mx, rr)
		b.Sub(mm, mx, gg)
		b.Sub(yy, mx, bb)
		b.PackBytes(t1, cc, mm)
		b.PackBytes(t2, yy, kk)
		b.Pack16LSB(outw, t1, t2)
		b.St32D(oPtr, int32(4*px), outw).InGroup(2)
	}
	b.AddI(rPtr, rPtr, 4)
	b.AddI(gPtr, gPtr, 4)
	b.AddI(bPtr, bPtr, 4)
	b.AddI(oPtr, oPtr, 16)
	b.AddI(cnt, cnt, -4)
	b.GtrI(cond, cnt, 0)
	b.JmpT(cond, "loop")
	pr := b.MustProgram()

	n := p.ImageW * p.ImageH
	return &Spec{
		Name:        "rgb2cmyk",
		Description: "RGB to CMYK color conversion (EEMBC consumer)",
		Prog:        pr,
		Args: map[prog.VReg]uint32{
			rPtr: imgRBase, gPtr: imgGBase, bPtr: imgBBase, oPtr: cmykBase,
			cnt: uint32(n),
		},
		Init:    initRGB(p),
		Regions: append(rgbRegions(p), region("cmyk", cmykBase, 4*n)),
		Check: func(m *mem.Func) error {
			for i := 0; i < n; i++ {
				r, g, bb := rgbAt(m, p, i)
				mx := r
				if g > mx {
					mx = g
				}
				if bb > mx {
					mx = bb
				}
				want := []byte{byte(mx - r), byte(mx - g), byte(mx - bb), byte(255 - mx)}
				for j, w := range want {
					if got := m.ByteAt(cmykBase + uint32(4*i+j)); got != w {
						return fmt.Errorf("rgb2cmyk: px %d comp %d = %d, want %d", i, j, got, w)
					}
				}
			}
			return nil
		},
	}
}
