package mpeg2

import (
	"bytes"
	"math"
	"testing"

	"tm3270/internal/mem"
	"tm3270/internal/video"
)

// TestIDCTAgainstFloat bounds the fixed-point error of the integer IDCT.
func TestIDCTAgainstFloat(t *testing.T) {
	rng := video.NewLCG(7)
	for trial := 0; trial < 200; trial++ {
		var bi [64]int32
		var bf [64]float64
		for k := 0; k < 8; k++ {
			idx := rng.Intn(64)
			v := int32(rng.Intn(1200) - 600)
			bi[idx] = v
			bf[idx] = float64(v)
		}
		IDCT8x8(&bi)
		IDCTFloat(&bf)
		for i := range bi {
			f := math.Max(-255, math.Min(255, bf[i]))
			if d := math.Abs(float64(bi[i]) - f); d > 2.0 {
				t.Fatalf("trial %d pixel %d: int %d float %.2f (err %.2f)", trial, i, bi[i], f, d)
			}
		}
	}
}

func TestIDCTDCOnly(t *testing.T) {
	var b [64]int32
	b[0] = 800 // DC: every output pixel = 800/8 = 100
	IDCT8x8(&b)
	for i, v := range b {
		if v < 99 || v > 101 {
			t.Fatalf("pixel %d = %d, want ~100", i, v)
		}
	}
}

func TestIDCTLinearity(t *testing.T) {
	rng := video.NewLCG(9)
	var a, b2, sum [64]int32
	for i := range a {
		if rng.Intn(8) == 0 {
			a[i] = int32(rng.Intn(200) - 100)
			b2[i] = int32(rng.Intn(200) - 100)
		}
		sum[i] = a[i] + b2[i]
	}
	IDCT8x8(&a)
	IDCT8x8(&b2)
	IDCT8x8(&sum)
	for i := range sum {
		if d := sum[i] - a[i] - b2[i]; d < -2 || d > 2 {
			t.Fatalf("linearity violated at %d: %d vs %d+%d", i, sum[i], a[i], b2[i])
		}
	}
}

func TestCoeffLayoutRoundTrip(t *testing.T) {
	m := mem.NewFunc()
	rng := video.NewLCG(3)
	var block [64]int32
	for i := range block {
		block[i] = int32(rng.Intn(4000) - 2000)
	}
	storeBlockCoeffs(m, 0x1000, &block)
	back := LoadBlockCoeffs(m, 0x1000)
	if back != block {
		t.Fatal("even/odd-split layout does not round-trip")
	}
	// The layout property the kernel relies on: a 32-bit load at row
	// offset 0 returns DUAL16(x0, x2).
	w := uint32(m.Load(0x1000, 4))
	if int16(w>>16) != int16(block[0]) || int16(w) != int16(block[2]) {
		t.Errorf("first word = (%d,%d), want (x0,x2) = (%d,%d)",
			int16(w>>16), int16(w), block[0], block[2])
	}
}

func TestBuildStreams(t *testing.T) {
	for _, s := range []Stream{StreamA, StreamB, StreamC} {
		m := mem.NewFunc()
		l, err := Build(m, 64, 48, s)
		if err != nil {
			t.Fatal(err)
		}
		if l.NumMBs() != 4*3 {
			t.Fatalf("%s: %d MBs", s.Name, l.NumMBs())
		}
		coded := 0
		for i := 0; i < l.NumMBs(); i++ {
			if m.ByteAt(l.Coded+uint32(i)) != 0 {
				coded++
			}
			mvx := int(int16(m.Load(l.MVBase+uint32(4*i), 2)))
			mvy := int(int16(m.Load(l.MVBase+uint32(4*i)+2, 2)))
			if mvx%4 != 0 {
				t.Errorf("%s: mv.x %d not word aligned", s.Name, mvx)
			}
			mbx, mby := i%l.MBW, i/l.MBW
			if mbx*16+mvx < 0 || mbx*16+mvx+16 > 64 || mby*16+mvy < 0 || mby*16+mvy+16 > 48 {
				t.Errorf("%s: MB %d mv (%d,%d) leaves the frame", s.Name, i, mvx, mvy)
			}
		}
		if s.CodedFrac > 0 && coded == 0 {
			t.Errorf("%s: no coded MBs", s.Name)
		}
		// InitialRef regenerates exactly the reference planes Build wrote.
		init := InitialRef(l, s)
		if !bytes.Equal(init.Y, m.ReadBytes(l.Ref.Base, l.Ref.Bytes())) ||
			!bytes.Equal(init.Cb, m.ReadBytes(l.RefCb.Base, l.RefCb.Bytes())) ||
			!bytes.Equal(init.Cr, m.ReadBytes(l.RefCr.Base, l.RefCr.Bytes())) {
			t.Errorf("%s: InitialRef differs from the planes Build wrote", s.Name)
		}
		// Expected reconstruction must be computable and correctly sized.
		exp := Expected(init, m, l, 1)
		if len(exp.Y) != 64*48 || len(exp.Cb) != 32*24 || len(exp.Cr) != 32*24 {
			t.Fatalf("expected frame sizes %d/%d/%d", len(exp.Y), len(exp.Cb), len(exp.Cr))
		}
		// Chained decoding differs from a single frame (the reference
		// regions swap) and is deterministic.
		e2 := Expected(init, m, l, 2)
		e2b := Expected(init, m, l, 2)
		if string(e2.Y) != string(e2b.Y) {
			t.Error("chained decode not deterministic")
		}
		yb, _, _ := l.FinalBases(2)
		if yb != l.Ref.Base {
			t.Error("after 2 frames the output must live in the reference region")
		}
	}
}

func TestDisruptivenessOrdering(t *testing.T) {
	spread := func(s Stream) float64 {
		mvs := video.GenerateMVField(45, 30, s.Disrupt, s.Seed+1)
		return video.MVSpread(mvs)
	}
	a, b, c := spread(StreamA), spread(StreamB), spread(StreamC)
	if !(a > b && b > c) {
		t.Errorf("MV spread a=%.1f b=%.1f c=%.1f, want a > b > c", a, b, c)
	}
	if a < 20 {
		t.Errorf("stream a spread %.1f too tame for 'highly disruptive'", a)
	}
}

func TestRejectsBadDims(t *testing.T) {
	if _, err := Build(mem.NewFunc(), 100, 48, StreamA); err == nil {
		t.Error("non-multiple-of-16 width accepted")
	}
}
