package icache_test

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/icache"
	"tm3270/internal/mem"
)

func newIC() (*icache.ICache, config.Target) {
	t := config.TM3270()
	return icache.New(&t, mem.NewBIU(&t)), t
}

// chunks is the number of chunk fetches: each one hits or misses.
func chunks(ic *icache.ICache) int64 { return ic.Stats.Hits + ic.Stats.Misses }

func TestColdMissThenWarm(t *testing.T) {
	ic, _ := newIC()
	if s := ic.Fetch(0, 0x1000, 8); s <= 0 {
		t.Fatal("cold fetch must stall")
	}
	if ic.Stats.Misses != 1 {
		t.Errorf("misses = %d", ic.Stats.Misses)
	}
	ic.Redirect()
	if s := ic.Fetch(1000, 0x1000, 8); s != 0 {
		t.Errorf("warm fetch stall = %d", s)
	}
}

func TestInstructionBufferAbsorbsSameChunk(t *testing.T) {
	ic, _ := newIC()
	ic.Fetch(0, 0x1000, 8)
	// Next instruction in the same 32-byte chunk: no new chunk fetch.
	ic.Fetch(10, 0x1008, 8)
	if n := chunks(ic); n != 1 {
		t.Errorf("chunk count = %d, want 1: a fetch within the current chunk must not re-access the cache", n)
	}
	// Crossing into the next chunk fetches one more.
	ic.Fetch(20, 0x101e, 8)
	if n := chunks(ic); n != 2 {
		t.Errorf("chunk count = %d, want 2", n)
	}
}

func TestFetchSpanningChunks(t *testing.T) {
	ic, _ := newIC()
	// A 28-byte instruction starting near a chunk end spans two chunks.
	ic.Fetch(0, 0x0ff8, 28)
	if n := chunks(ic); n != 2 {
		t.Errorf("chunks = %d, want 2", n)
	}
}

func TestLoopFitsInCache(t *testing.T) {
	ic, _ := newIC()
	// Simulate a 1 KB loop body fetched 100 times: misses only on the
	// first pass (1 KB / 128 B lines = 8 misses).
	now := int64(0)
	for iter := 0; iter < 100; iter++ {
		for a := uint32(0x2000); a < 0x2400; a += 16 {
			now += ic.Fetch(now, a, 16) + 1
		}
		ic.Redirect()
	}
	if ic.Stats.Misses != 8 {
		t.Errorf("misses = %d, want 8 (cold only)", ic.Stats.Misses)
	}
}

// TestUnarmedMissAllocatesNothing checks that an instruction-cache miss
// allocates nothing when no event trace is armed.
func TestUnarmedMissAllocatesNothing(t *testing.T) {
	ic, tgt := newIC()
	stride := uint32(tgt.ICache.Sets() * tgt.ICache.LineBytes)
	now, addr := int64(0), uint32(0x1000)
	miss := func() {
		now += 1000
		ic.Fetch(now, addr, 8)
		addr += stride
	}
	misses := ic.Stats.Misses
	if allocs := testing.AllocsPerRun(50, miss); allocs != 0 {
		t.Errorf("I$ miss: %.1f allocations, want 0", allocs)
	}
	if got := ic.Stats.Misses - misses; got != 51 {
		t.Errorf("%d misses over 51 runs, want 51", got)
	}
}
