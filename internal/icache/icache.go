// Package icache models the TM3270 instruction cache: 64 KB, 8-way,
// LRU, with a sequential tag-then-data access pipeline (a power
// optimization; stages I1–I3 of Figure 4) feeding 32-byte aligned
// fetch chunks into the 4-entry instruction buffer.
package icache

import (
	"tm3270/internal/cache"
	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/telemetry"
)

// ChunkBytes is the fetch width: one 32-byte aligned chunk per cycle.
const ChunkBytes = 32

// Stats are the instruction-fetch counters. Every chunk fetched
// either hits or misses, so the chunk count is Hits + Misses.
type Stats struct {
	Hits   int64
	Misses int64
}

// ICache is the instruction-cache timing model.
type ICache struct {
	t   *config.Target
	arr *cache.Cache
	biu *mem.BIU

	// lastChunk short-circuits repeated fetches from the same chunk,
	// standing in for the instruction buffer.
	lastChunk uint32
	haveLast  bool

	// Events, when non-nil, receives miss/refill trace events on the
	// fetch lane.
	Events *telemetry.Trace

	Stats Stats
}

// New builds the model.
func New(t *config.Target, biu *mem.BIU) *ICache {
	return &ICache{t: t, arr: cache.New(t.ICache, false), biu: biu}
}

// Fetch models retrieving the instruction bytes [addr, addr+size) at
// CPU cycle now, returning added stall cycles. The instruction buffer
// absorbs chunk re-fetches; misses stall for the refill.
func (ic *ICache) Fetch(now int64, addr uint32, size int) int64 {
	var stall int64
	first := addr &^ (ChunkBytes - 1)
	last := (addr + uint32(size) - 1) &^ (ChunkBytes - 1)
	for chunk := first; ; chunk += ChunkBytes {
		if !ic.haveLast || ic.lastChunk != chunk {
			ic.haveLast = true
			ic.lastChunk = chunk
			stall += ic.fetchChunk(now+stall, chunk)
		}
		if chunk == last {
			break
		}
	}
	return stall
}

func (ic *ICache) fetchChunk(now int64, chunk uint32) int64 {
	lineAddr := ic.arr.LineAddr(chunk)
	if l, hit := ic.arr.LookupTouch(lineAddr); hit {
		ic.Stats.Hits++
		if l.ReadyAt > now {
			return l.ReadyAt - now
		}
		return 0
	}
	ic.Stats.Misses++
	v := ic.arr.Victim(lineAddr)
	ic.arr.Fill(v, lineAddr, true)
	done := ic.biu.Read(ic.t, now, ic.t.ICache.LineBytes, false)
	if ic.Events != nil {
		ic.Events.Complete(telemetry.LaneFetch, "imiss-refill", "imiss",
			now, done-now, map[string]any{"line": lineAddr})
	}
	return done - now
}

// Redirect informs the fetch model of a taken branch (the instruction
// buffer contents are discarded).
func (ic *ICache) Redirect() { ic.haveLast = false }
