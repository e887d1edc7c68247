package dcache_test

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/dcache"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
)

func tm3270() config.Target { return config.TM3270() }

func newDC(t config.Target, pf *prefetch.Unit) (*dcache.DCache, *mem.BIU) {
	biu := mem.NewBIU(&t)
	return dcache.New(&t, biu, pf), biu
}

func TestLoadMissThenHit(t *testing.T) {
	tgt := tm3270()
	dc, _ := newDC(tgt, nil)
	stall := dc.Access(0, 0x1000, 4, dcache.Load)
	if stall <= 0 {
		t.Fatalf("cold load miss stall = %d, want > 0", stall)
	}
	if dc.Stats.LoadMisses != 1 {
		t.Errorf("misses = %d", dc.Stats.LoadMisses)
	}
	if s := dc.Access(100000, 0x1000, 4, dcache.Load); s != 0 {
		t.Errorf("hit stall = %d, want 0", s)
	}
	if dc.Stats.LoadHits != 1 {
		t.Errorf("hits = %d", dc.Stats.LoadHits)
	}
	// Anywhere in the same 128-byte line hits.
	if s := dc.Access(100001, 0x107c, 4, dcache.Load); s != 0 {
		t.Errorf("same-line hit stall = %d", s)
	}
}

func TestNonAlignedLineCrossing(t *testing.T) {
	tgt := tm3270()
	dc, _ := newDC(tgt, nil)
	// 4 bytes at 0x107e span lines 0x1000 and 0x1080: two misses.
	dc.Access(0, 0x107e, 4, dcache.Load)
	if dc.Stats.LoadMisses != 2 {
		t.Errorf("misses = %d, want 2 for a line-crossing cold access", dc.Stats.LoadMisses)
	}
	if dc.Stats.LineCrossers != 1 {
		t.Errorf("crossers = %d", dc.Stats.LineCrossers)
	}
	// Once resident, the same non-aligned access is penalty-free.
	if s := dc.Access(1_000_000, 0x107e, 4, dcache.Load); s != 0 {
		t.Errorf("resident non-aligned access stall = %d, want 0 (penalty-free)", s)
	}
}

func TestAllocateOnWriteMissProducesNoRead(t *testing.T) {
	tgt := tm3270()
	dc, biu := newDC(tgt, nil)
	if s := dc.Access(0, 0x2000, 4, dcache.Store); s != 0 {
		t.Errorf("allocate-on-write stall = %d, want 0", s)
	}
	if biu.BytesRead != 0 {
		t.Errorf("allocate-on-write read %d bytes from memory, want 0", biu.BytesRead)
	}
	if dc.Stats.StoreMisses != 1 {
		t.Errorf("store misses = %d", dc.Stats.StoreMisses)
	}
}

func TestFetchOnWriteMissCWB(t *testing.T) {
	tgt := config.TM3260()
	dc, biu := newDC(tgt, nil)
	// A lone write miss parks in the cache write buffer: the line is
	// fetched but the processor does not stall.
	if s := dc.Access(0, 0x2000, 4, dcache.Store); s != 0 {
		t.Errorf("first write-miss stall = %d, want 0 (CWB absorbs it)", s)
	}
	if biu.BytesRead != int64(tgt.DCache.LineBytes) {
		t.Errorf("fetch-on-write read %d bytes, want a full %d-byte line",
			biu.BytesRead, tgt.DCache.LineBytes)
	}
	// A burst of write misses saturates the CWB (4 entries on the
	// TM3260) and the processor stalls — the write-miss penalty that
	// allocate-on-write-miss eliminates.
	stalled := false
	for i := 1; i <= 8; i++ {
		if s := dc.Access(int64(i), uint32(0x2000+i*0x1000), 4, dcache.Store); s > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Error("a write-miss burst never stalled: CWB capacity unmodeled")
	}
	// Subsequent stores to a fetched line hit without stalls.
	if s := dc.Access(1_000_000, 0x2004, 4, dcache.Store); s != 0 {
		t.Errorf("store hit stall = %d", s)
	}

	// Under allocate-on-write-miss the same burst never stalls.
	dc2, biu2 := newDC(tm3270(), nil)
	for i := 0; i <= 8; i++ {
		if s := dc2.Access(int64(i), uint32(0x2000+i*0x1000), 4, dcache.Store); s != 0 {
			t.Errorf("allocate-on-write burst stalled %d", s)
		}
	}
	if biu2.BytesRead != 0 {
		t.Error("allocate-on-write fetched lines")
	}
}

func TestByteValidityMergeOnLoad(t *testing.T) {
	tgt := tm3270()
	dc, biu := newDC(tgt, nil)
	// Store allocates with 4 valid bytes.
	dc.Access(0, 0x3000, 4, dcache.Store)
	// Loading the stored bytes hits without memory traffic.
	if s := dc.Access(10, 0x3000, 4, dcache.Load); s != 0 {
		t.Errorf("load of valid bytes stalled %d", s)
	}
	if biu.BytesRead != 0 {
		t.Error("no memory read expected for valid bytes")
	}
	// Loading unwritten bytes of the allocated line forces a fetch-merge.
	s := dc.Access(20, 0x3010, 4, dcache.Load)
	if s <= 0 {
		t.Error("load of invalid bytes must stall for the merge fetch")
	}
	if dc.Stats.MergeMisses != 1 {
		t.Errorf("merge misses = %d", dc.Stats.MergeMisses)
	}
	if biu.BytesRead == 0 {
		t.Error("merge fetch must read from memory")
	}
}

func TestCopybackOnlyValidBytes(t *testing.T) {
	tgt := tm3270()
	tgt.DCache.SizeBytes = 1 << 10 // tiny: 2 sets x 4 ways x 128B
	dc, biu := newDC(tgt, nil)
	// Allocate a line with 4 dirty bytes, then evict it by filling the set.
	dc.Access(0, 0x0000, 4, dcache.Store)
	for i := 1; i <= 4; i++ {
		dc.Access(int64(i*1000), uint32(i)<<8, 4, dcache.Load) // same set (bit 8+)
	}
	if dc.Stats.Copybacks == 0 {
		t.Fatal("dirty line never copied back")
	}
	if biu.BytesWritten != 4 {
		t.Errorf("copyback wrote %d bytes, want 4 (only validated bytes travel)", biu.BytesWritten)
	}
}

func TestFullLineCopyback(t *testing.T) {
	tgt := tm3270()
	tgt.DCache.SizeBytes = 1 << 10
	dc, biu := newDC(tgt, nil)
	// Write a whole line, then evict it.
	for off := uint32(0); off < 128; off += 4 {
		dc.Access(0, off, 4, dcache.Store)
	}
	for i := 1; i <= 4; i++ {
		dc.Access(int64(i*1000), uint32(i)<<8, 4, dcache.Load)
	}
	if biu.BytesWritten != 128 {
		t.Errorf("copyback wrote %d bytes, want the full 128", biu.BytesWritten)
	}
}

func TestAllocd(t *testing.T) {
	tgt := tm3270()
	dc, biu := newDC(tgt, nil)
	if s := dc.Access(0, 0x4000, 0, dcache.Alloc); s != 0 {
		t.Errorf("allocd stall = %d", s)
	}
	if biu.BytesRead != 0 {
		t.Error("allocd must not fetch")
	}
	// The whole line is now valid: loads hit without traffic.
	if s := dc.Access(10, 0x4040, 4, dcache.Load); s != 0 {
		t.Errorf("load after allocd stalled %d", s)
	}
	if biu.BytesRead != 0 {
		t.Error("load after allocd must not fetch")
	}
}

func TestRegionPrefetchHidesMisses(t *testing.T) {
	tgt := tm3270()
	pf := &prefetch.Unit{}
	dc, _ := newDC(tgt, pf)
	// Program region 0: a 64 KB region with one-line stride.
	pf.Regions[0] = prefetch.Region{Start: 0x10000, End: 0x20000, Stride: 128}

	// Walk the region with ample time between accesses: after the first
	// miss, every next line was prefetched.
	now := int64(0)
	var stalls, misses int64
	for addr := uint32(0x10000); addr < 0x11000; addr += 128 {
		s := dc.Access(now, addr, 4, dcache.Load)
		stalls += s
		now += 200 // enough cycles for the prefetch to land
	}
	misses = dc.Stats.LoadMisses
	if misses != 1 {
		t.Errorf("misses with prefetch = %d, want 1 (only the cold first line)", misses)
	}
	if pf.Stats.Issued == 0 {
		t.Error("no prefetches issued")
	}
	if pf.Stats.Useful == 0 {
		t.Error("no useful prefetches recorded")
	}

	// Without the region, every line misses.
	dc2, _ := newDC(tgt, &prefetch.Unit{})
	now = 0
	for addr := uint32(0x10000); addr < 0x11000; addr += 128 {
		dc2.Access(now, addr, 4, dcache.Load)
		now += 200
	}
	if dc2.Stats.LoadMisses != 32 {
		t.Errorf("misses without prefetch = %d, want 32", dc2.Stats.LoadMisses)
	}
}

func TestPrefetchPartialHitStalls(t *testing.T) {
	tgt := tm3270()
	pf := &prefetch.Unit{}
	dc, _ := newDC(tgt, pf)
	pf.Regions[0] = prefetch.Region{Start: 0x10000, End: 0x20000, Stride: 128}
	dc.Access(0, 0x10000, 4, dcache.Load) // miss; prefetch of 0x10080 issued
	// Access the prefetched line immediately: it is still in flight.
	s := dc.Access(1, 0x10080, 4, dcache.Load)
	if s <= 0 {
		t.Error("access to in-flight prefetched line must stall")
	}
	if dc.Stats.PartialHits != 1 {
		t.Errorf("partial hits = %d, want 1", dc.Stats.PartialHits)
	}
}

func TestBIUOccupancySerializes(t *testing.T) {
	tgt := tm3270()
	biu := mem.NewBIU(&tgt)
	d1 := biu.Read(&tgt, 0, 128, false)
	d2 := biu.Read(&tgt, 0, 128, false)
	if d2 <= d1 {
		t.Errorf("second transfer done at %d, first at %d: no serialization", d2, d1)
	}
	if biu.DemandReads != 2 || biu.BytesRead != 256 {
		t.Errorf("stats: %d reads, %d bytes", biu.DemandReads, biu.BytesRead)
	}
	// A write after the reads starts after them.
	w := biu.Write(&tgt, 0, 128)
	if w <= d2-int64(tgt.MemLatencyCycles()) {
		t.Errorf("write completed at %d, overlapping the reads", w)
	}
}

func TestMemTimingScalesWithLineSize(t *testing.T) {
	tgt := tm3270()
	if c64, c128 := tgt.CyclesPerLine(64), tgt.CyclesPerLine(128); c128 <= c64 {
		t.Errorf("128B line transfer (%d cyc) not slower than 64B (%d cyc)", c128, c64)
	}
	if tgt.MemLatencyCycles() <= 0 {
		t.Error("memory latency must be positive")
	}
}

// TestUnarmedEventsAllocateNothing checks that a warmed load miss with a
// copyback allocates nothing when no event trace is armed: the trace
// arguments of the cache and bus events are built only for an armed
// trace.
func TestUnarmedEventsAllocateNothing(t *testing.T) {
	tgt := config.ConfigD()
	dc, _ := newDC(tgt, nil)
	stride := uint32(tgt.DCache.Sets() * tgt.DCache.LineBytes) // same set, next tag
	now, addr := int64(0), uint32(0x10000)
	missDirty := func() {
		// Each load misses in one set, whose LRU victim an earlier
		// store left dirty; the store then dirties the new line.
		now += 1000
		dc.Access(now, addr, 4, dcache.Load)
		dc.Access(now+1, addr, 4, dcache.Store)
		addr += stride
	}
	for i := 0; i < 2*tgt.DCache.Ways; i++ {
		missDirty()
	}
	misses, copybacks := dc.Stats.LoadMisses, dc.Stats.Copybacks
	if allocs := testing.AllocsPerRun(50, missDirty); allocs != 0 {
		t.Errorf("warmed load miss with copyback: %.1f allocations, want 0", allocs)
	}
	if dc.Stats.LoadMisses-misses != 51 || dc.Stats.Copybacks-copybacks != 51 {
		t.Errorf("%d load misses, %d copybacks over 51 runs, want 51 each",
			dc.Stats.LoadMisses-misses, dc.Stats.Copybacks-copybacks)
	}
}
