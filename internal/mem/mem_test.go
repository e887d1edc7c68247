package mem_test

import (
	"testing"
	"testing/quick"

	"tm3270/internal/config"
	"tm3270/internal/mem"
)

func TestFuncBigEndian(t *testing.T) {
	m := mem.NewFunc()
	m.Store(0x100, 4, 0x11223344)
	if m.ByteAt(0x100) != 0x11 || m.ByteAt(0x103) != 0x44 {
		t.Error("stores must be big-endian")
	}
	if got := m.Load(0x101, 2); got != 0x2233 {
		t.Errorf("non-aligned 16-bit load = %#x", got)
	}
	if got := m.Load(0x0fe, 8); got != 0x0000112233440000 {
		t.Errorf("8-byte straddling load = %#x", got)
	}
}

// TestFuncDefinedPerByte: write-validity is tracked per byte, not per
// page — a written byte's neighbours on the same page stay undefined
// until individually written. This is the granularity the reference
// model uses, and strict mode in the pipeline model must match it.
func TestFuncDefinedPerByte(t *testing.T) {
	m := mem.NewFunc()
	if m.Defined(0x2000, 1) {
		t.Error("empty image must have no defined bytes")
	}
	m.Store(0x2004, 4, 0xdeadbeef)
	if !m.Defined(0x2004, 4) {
		t.Error("stored bytes must be defined")
	}
	if m.Defined(0x2003, 1) || m.Defined(0x2008, 1) {
		t.Error("neighbours of a store on the same page must stay undefined")
	}
	if m.Defined(0x2003, 4) || m.Defined(0x2006, 4) {
		t.Error("accesses straddling an undefined byte must report undefined")
	}
	if got := m.PageAddrs(); len(got) != 1 || got[0] != 0x2000 {
		t.Errorf("PageAddrs = %#x, want the one page holding the store (page-granular view)", got)
	}
	// A write straddling a page boundary defines bytes on both pages.
	m.Store(0x2fff, 2, 0x1234)
	if !m.Defined(0x2fff, 2) {
		t.Error("page-straddling store must define both bytes")
	}
	if m.Defined(0x3001, 1) {
		t.Error("byte past the straddling store must stay undefined")
	}
}

func TestFuncRoundTripProperty(t *testing.T) {
	m := mem.NewFunc()
	f := func(addr uint32, v uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		mask := ^uint64(0)
		if n < 8 {
			mask = 1<<(8*n) - 1
		}
		m.Store(addr, n, v)
		return m.Load(addr, n) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFuncSparsePagesReadZero(t *testing.T) {
	m := mem.NewFunc()
	for _, addr := range []uint32{0, 0xffffffff, 0x8000_0000, 0x1234_5678} {
		if m.ByteAt(addr) != 0 {
			t.Errorf("untouched byte at %#x reads nonzero", addr)
		}
	}
}

func TestBIUTimingShape(t *testing.T) {
	tgt := config.TM3270()
	b := mem.NewBIU(&tgt)
	// A read's completion includes the first-access latency plus the
	// transfer; larger lines take longer.
	d64 := b.Read(&tgt, 0, 64, false)
	if d64 <= int64(tgt.MemLatencyCycles()) {
		t.Errorf("64B read done at %d, must exceed the %d-cycle latency", d64, tgt.MemLatencyCycles())
	}
	b2 := mem.NewBIU(&tgt)
	d128 := b2.Read(&tgt, 0, 128, false)
	if d128 <= d64 {
		t.Errorf("128B (%d) not slower than 64B (%d)", d128, d64)
	}
	// Writes occupy the bus but complete without the access latency.
	b3 := mem.NewBIU(&tgt)
	w := b3.Write(&tgt, 0, 128)
	if w >= d128 {
		t.Errorf("write completion %d should beat read %d (no CAS latency)", w, d128)
	}
	if b3.BytesWritten != 128 || b3.Writes != 1 {
		t.Error("write accounting wrong")
	}
}

func TestBIUBackToBackOccupancy(t *testing.T) {
	tgt := config.TM3270()
	b := mem.NewBIU(&tgt)
	var last int64
	for i := 0; i < 8; i++ {
		done := b.Read(&tgt, 0, 128, i%2 == 0)
		if done <= last {
			t.Fatalf("transfer %d done at %d, not after previous %d", i, done, last)
		}
		last = done
	}
	if b.DemandReads != 4 || b.PrefetchRead != 4 {
		t.Errorf("read classification: %d demand, %d prefetch", b.DemandReads, b.PrefetchRead)
	}
	if b.TotalBytes() != 8*128 {
		t.Errorf("total bytes %d", b.TotalBytes())
	}
	// Issuing after the bus drains starts immediately (BusyUntil moves).
	if b.BusyUntil() <= 0 {
		t.Error("occupancy horizon not tracked")
	}
}
