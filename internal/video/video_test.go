package video_test

import (
	"testing"
	"testing/quick"

	"tm3270/internal/mem"
	"tm3270/internal/video"
)

func TestFrameAddrClamps(t *testing.T) {
	f := video.NewFrame(0x1000, 64, 32)
	if f.Addr(0, 0) != 0x1000 {
		t.Errorf("origin = %#x", f.Addr(0, 0))
	}
	if f.Addr(63, 31) != 0x1000+64*31+63 {
		t.Errorf("corner = %#x", f.Addr(63, 31))
	}
	// Out-of-frame coordinates clamp (motion-compensation edge rule).
	if f.Addr(-5, 0) != f.Addr(0, 0) {
		t.Error("negative x not clamped")
	}
	if f.Addr(200, 100) != f.Addr(63, 31) {
		t.Error("overflow not clamped")
	}
	if f.Bytes() != 64*32 || f.End() != 0x1000+64*32 {
		t.Error("size accounting wrong")
	}
}

func TestLCGDeterministic(t *testing.T) {
	a, b := video.NewLCG(42), video.NewLCG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	if video.NewLCG(0).Next() == 0 {
		t.Error("zero seed must be remapped")
	}
	f := func(n uint8) bool {
		rng := video.NewLCG(uint32(n) + 1)
		for i := 0; i < 50; i++ {
			if v := rng.Intn(7); v < 0 || v >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillAndChecksum(t *testing.T) {
	m := mem.NewFunc()
	f := video.NewFrame(0x2000, 32, 16)
	video.FillTestPattern(m, f, 7)
	c1 := video.Checksum(m, f)
	if c1 == video.Checksum(m, video.NewFrame(0x9000, 32, 16)) {
		t.Error("checksum of filled frame equals empty frame")
	}
	// Deterministic across refills.
	m2 := mem.NewFunc()
	video.FillTestPattern(m2, f, 7)
	if video.Checksum(m2, f) != c1 {
		t.Error("pattern not deterministic")
	}
	// A single-pixel change moves the checksum.
	m2.SetByte(f.Addr(5, 5), m2.ByteAt(f.Addr(5, 5))+1)
	if video.Checksum(m2, f) == c1 {
		t.Error("checksum insensitive to pixel change")
	}
}

func TestMVFieldDisruptiveness(t *testing.T) {
	smooth := video.GenerateMVField(40, 30, 0, 3)
	wild := video.GenerateMVField(40, 30, 1, 3)
	if video.MVSpread(smooth) != 0 {
		t.Errorf("disrupt=0 must be a pure pan, spread %.2f", video.MVSpread(smooth))
	}
	if video.MVSpread(wild) < 10 {
		t.Errorf("disrupt=1 spread %.2f too small", video.MVSpread(wild))
	}
	if len(smooth) != 1200 {
		t.Errorf("field size %d", len(smooth))
	}
	if video.MVSpread(nil) != 0 {
		t.Error("empty field spread")
	}
}

func TestMemFuncBasics(t *testing.T) {
	m := mem.NewFunc()
	if m.ByteAt(0xdeadbeef) != 0 {
		t.Error("untouched memory must read zero")
	}
	m.Store(0xfffffffe, 4, 0x11223344) // wraps the address space
	if m.ByteAt(0xfffffffe) != 0x11 || m.ByteAt(0x1) != 0x44 {
		t.Error("wrap-around store broken")
	}
	m.WriteBytes(0x100, []byte{1, 2, 3})
	got := m.ReadBytes(0x100, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ReadBytes = %v", got)
	}
	a, b := mem.NewFunc(), mem.NewFunc()
	a.SetByte(0x5000, 9)
	if addr, diff := mem.Diff(a, b, nil); !diff || addr != 0x5000 {
		t.Errorf("Diff = %#x,%v", addr, diff)
	}
	b.SetByte(0x5000, 9)
	if _, diff := mem.Diff(a, b, nil); diff {
		t.Error("equal images reported different")
	}
}
