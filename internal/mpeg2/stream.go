package mpeg2

import (
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/video"
)

// Stream characterizes one synthetic MPEG2 bitstream. The paper's
// mpeg2_a stream is "characterized by a highly disruptive motion vector
// field"; b and c are progressively tamer.
type Stream struct {
	Name      string
	Disrupt   float64 // motion-vector field disruptiveness in [0,1]
	CodedFrac float64 // fraction of macroblocks carrying residuals
	Seed      uint32
}

// The three evaluation streams of Table 5.
var (
	StreamA = Stream{Name: "mpeg2_a", Disrupt: 1.0, CodedFrac: 0.45, Seed: 11}
	StreamB = Stream{Name: "mpeg2_b", Disrupt: 0.35, CodedFrac: 0.30, Seed: 22}
	StreamC = Stream{Name: "mpeg2_c", Disrupt: 0.05, CodedFrac: 0.25, Seed: 33}
)

// Memory layout constants of the decoder working set.
const (
	// Bases staggered by multiples of 13 cache lines to avoid pathological
	// set alignment between the decoder's concurrent streams.
	refBase     = 0x0400_0000
	outBase     = 0x0480_0680
	mvBase      = 0x0500_0d00
	codedBase   = 0x0510_1380
	coeffBase   = 0x0520_1a00
	scratchBase = 0x05f0_2080

	// BlockCoeffBytes is the storage of one 8x8 coefficient block:
	// 64 16-bit coefficients in the even/odd-split row layout.
	BlockCoeffBytes = 128
	// MBCoeffBytes covers the four luma and two chroma blocks of a
	// 4:2:0 macroblock.
	MBCoeffBytes = 6 * BlockCoeffBytes
)

// Chroma plane bases (quarter-resolution Cb and Cr), staggered like the
// luma planes.
const (
	refCbBase = 0x0440_0340
	refCrBase = 0x0450_09c0
	outCbBase = 0x04c0_1040
	outCrBase = 0x04d0_16c0
)

// Layout is the in-memory arrangement of one decoded frame's inputs
// and outputs.
type Layout struct {
	Ref, Out video.Frame
	// Chroma planes (4:2:0): quarter-resolution Cb and Cr.
	RefCb, RefCr, OutCb, OutCr video.Frame
	MVBase                     uint32 // 4 bytes per MB: int16 mvX, int16 mvY (big-endian)
	Coded                      uint32 // 1 byte per MB: 1 = residuals present
	Coeff                      uint32 // MBCoeffBytes per MB (4 luma + 2 chroma blocks)
	Scratch                    uint32 // two 128-byte 8x8 int16 scratch blocks
	MBW, MBH                   int
}

// NumMBs returns the macroblock count.
func (l *Layout) NumMBs() int { return l.MBW * l.MBH }

// NewLayout computes the working-set arrangement of a w×h frame
// (multiples of 16) without touching memory; Build populates an image
// for it. Kernel builders use it to bind the fixed base addresses.
func NewLayout(w, h int) (*Layout, error) {
	if w%16 != 0 || h%16 != 0 {
		return nil, fmt.Errorf("mpeg2: frame %dx%d not multiple of 16", w, h)
	}
	return &Layout{
		Ref:     video.NewFrame(refBase, w, h),
		Out:     video.NewFrame(outBase, w, h),
		RefCb:   video.NewFrame(refCbBase, w/2, h/2),
		RefCr:   video.NewFrame(refCrBase, w/2, h/2),
		OutCb:   video.NewFrame(outCbBase, w/2, h/2),
		OutCr:   video.NewFrame(outCrBase, w/2, h/2),
		MVBase:  mvBase,
		Coded:   codedBase,
		Coeff:   coeffBase,
		Scratch: scratchBase,
		MBW:     w / 16,
		MBH:     h / 16,
	}, nil
}

// Build populates memory with a reference frame, motion vectors, coded
// flags and residual coefficients for a w×h frame (multiples of 16).
//
// Two concessions keep the kernel portable across the TM3260 (which has
// no penalty-free non-aligned access): horizontal motion components are
// quantized to 4-byte alignment, and vectors are clamped so that every
// 16x16 reference block stays inside the frame. Neither affects the
// property under test — which cache lines the motion field touches.
func Build(m *mem.Func, w, h int, s Stream) (*Layout, error) {
	l, err := NewLayout(w, h)
	if err != nil {
		return nil, err
	}
	ref := InitialRef(l, s)
	m.WriteBytes(l.Ref.Base, ref.Y)
	m.WriteBytes(l.RefCb.Base, ref.Cb)
	m.WriteBytes(l.RefCr.Base, ref.Cr)

	mvs := video.GenerateMVField(l.MBW, l.MBH, s.Disrupt, s.Seed+1)
	rng := video.NewLCG(s.Seed + 2)
	for i, mv := range mvs {
		mbx, mby := i%l.MBW, i/l.MBW
		// Quantize X to word alignment, clamp the block into the frame.
		x := int(mv.X) &^ 3
		y := int(mv.Y)
		x = clampInt(x, -mbx*16, (l.MBW-1-mbx)*16)
		x &^= 3
		y = clampInt(y, -mby*16, (l.MBH-1-mby)*16)
		m.Store(l.MVBase+uint32(4*i), 2, uint64(uint16(int16(x))))
		m.Store(l.MVBase+uint32(4*i)+2, 2, uint64(uint16(int16(y))))

		coded := rng.Next()%1000 < uint32(s.CodedFrac*1000)
		if coded {
			m.SetByte(l.Coded+uint32(i), 1)
			for blk := 0; blk < 6; blk++ {
				genBlockCoeffs(m, l.Coeff+uint32(i*MBCoeffBytes+blk*BlockCoeffBytes), rng)
			}
		} else {
			m.SetByte(l.Coded+uint32(i), 0)
		}
	}
	return l, nil
}

// genBlockCoeffs writes a sparse random coefficient block in the
// even/odd-split row layout the kernel consumes: each row stores
// x0,x2,x4,x6,x1,x3,x5,x7 so that 32-bit loads deliver ready-made
// (even, even) and (odd, odd) 16-bit pairs for ifir16/SUPER_DUALIMIX.
func genBlockCoeffs(m *mem.Func, base uint32, rng *video.LCG) {
	var block [64]int32
	// DC plus a handful of low-frequency AC coefficients, scaled so the
	// reconstructed residual stays within ±255.
	block[0] = int32(rng.Intn(1200) - 600)
	for k := 0; k < 5; k++ {
		u, v := rng.Intn(4), rng.Intn(4)
		if u == 0 && v == 0 {
			continue
		}
		block[8*u+v] = int32(rng.Intn(400) - 200)
	}
	storeBlockCoeffs(m, base, &block)
}

// storeBlockCoeffs writes a natural-order coefficient block into the
// even/odd-split layout.
func storeBlockCoeffs(m *mem.Func, base uint32, block *[64]int32) {
	perm := [8]int{0, 2, 4, 6, 1, 3, 5, 7}
	for r := 0; r < 8; r++ {
		for i, src := range perm {
			v := block[8*r+src]
			m.Store(base+uint32(16*r+2*i), 2, uint64(uint16(int16(v))))
		}
	}
}

// LoadBlockCoeffs reads a block back into natural order (tests,
// reference decode).
func LoadBlockCoeffs(m *mem.Func, base uint32) [64]int32 {
	perm := [8]int{0, 2, 4, 6, 1, 3, 5, 7}
	var block [64]int32
	for r := 0; r < 8; r++ {
		for i, src := range perm {
			raw := uint16(m.Load(base+uint32(16*r+2*i), 2))
			block[8*r+src] = int32(int16(raw))
		}
	}
	return block
}

// ExpectedFrames is the reference reconstruction of all three planes.
type ExpectedFrames struct {
	Y, Cb, Cr []byte
}

// ChromaMV derives the chroma motion vector from a luma vector: halved
// (flooring shift) with the horizontal component aligned down to word
// alignment, matching the kernel's portable addressing.
func ChromaMV(mvx, mvy int) (int, int) {
	return (mvx >> 1) &^ 3, mvy >> 1
}

// FinalBases returns the memory bases holding the last decoded frame
// after nFrames of chained decoding (output and reference regions swap
// every frame).
func (l *Layout) FinalBases(nFrames int) (y, cb, cr uint32) {
	if nFrames%2 == 1 {
		return l.Out.Base, l.OutCb.Base, l.OutCr.Base
	}
	return l.Ref.Base, l.RefCb.Base, l.RefCr.Base
}

// InitialRef returns the reference planes Build writes for stream s:
// the decoder's first motion-compensation source. Checks regenerate
// them from the seed rather than reading them back, since chained
// decoding overwrites the reference region from the second frame on.
func InitialRef(l *Layout, s Stream) *ExpectedFrames {
	return &ExpectedFrames{
		Y:  video.TestPattern(l.Ref, s.Seed),
		Cb: video.TestPattern(l.RefCb, s.Seed+7),
		Cr: video.TestPattern(l.RefCr, s.Seed+8),
	}
}

// Expected computes the reference reconstruction of nFrames chained
// frames: every frame is motion compensated from the previous frame's
// output (the first from init, see InitialRef), re-using the same motion
// vectors and residuals each frame, exactly as the kernel does. The
// vectors, flags and coefficients are read from m, which the kernel
// never modifies.
func Expected(init *ExpectedFrames, m *mem.Func, l *Layout, nFrames int) *ExpectedFrames {
	ref := init
	var out *ExpectedFrames
	for f := 0; f < nFrames; f++ {
		out = decodeOne(m, l, ref)
		ref = out
	}
	return out
}

func decodeOne(m *mem.Func, l *Layout, ref *ExpectedFrames) *ExpectedFrames {
	out := &ExpectedFrames{
		Y:  make([]byte, l.Out.Bytes()),
		Cb: make([]byte, l.OutCb.Bytes()),
		Cr: make([]byte, l.OutCr.Bytes()),
	}
	refAt := func(plane []byte, f video.Frame, x, y int) int32 {
		return int32(plane[(f.Addr(x, y) - f.Base)])
	}
	for i := 0; i < l.NumMBs(); i++ {
		mbx, mby := i%l.MBW, i/l.MBW
		mvx := int(int16(m.Load(l.MVBase+uint32(4*i), 2)))
		mvy := int(int16(m.Load(l.MVBase+uint32(4*i)+2, 2)))
		coded := m.ByteAt(l.Coded+uint32(i)) != 0

		var resid [6][64]int32
		if coded {
			for blk := 0; blk < 6; blk++ {
				resid[blk] = LoadBlockCoeffs(m, l.Coeff+uint32(i*MBCoeffBytes+blk*BlockCoeffBytes))
				IDCT8x8(&resid[blk])
			}
		}
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				px, py := mbx*16+x, mby*16+y
				v := refAt(ref.Y, l.Ref, px+mvx, py+mvy)
				if coded {
					blk := (y/8)*2 + x/8
					v += resid[blk][(y%8)*8+x%8]
				}
				out.Y[py*l.Out.Stride+px] = clipPix(v)
			}
		}
		cmvx, cmvy := ChromaMV(mvx, mvy)
		for p, plane := range []struct {
			geom video.Frame
			src  []byte
			dst  []byte
		}{{l.RefCb, ref.Cb, out.Cb}, {l.RefCr, ref.Cr, out.Cr}} {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					px, py := mbx*8+x, mby*8+y
					v := refAt(plane.src, plane.geom, px+cmvx, py+cmvy)
					if coded {
						v += resid[4+p][8*y+x]
					}
					plane.dst[py*plane.geom.Stride+px] = clipPix(v)
				}
			}
		}
	}
	return out
}

func clipPix(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
