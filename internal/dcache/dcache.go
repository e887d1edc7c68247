// Package dcache models the TM3270 data-cache timing: 128 KB, 4-way,
// 128-byte lines, copy-back, LRU, allocate-on-write-miss with per-byte
// validity, penalty-free non-aligned accesses (which may still miss in
// two lines when crossing a line boundary), and region-prefetch fills
// that land directly in the cache. The TM3260 variant (16 KB, 8-way,
// 64-byte lines, fetch-on-write-miss) is the same model under a
// different configuration.
//
// The model is a timing model only: functional data lives in the
// simulator's memory image. Stalls are returned to the caller in CPU
// cycles; background traffic (copybacks, write-miss fetches, prefetches)
// occupies the bus interface unit without stalling the processor.
package dcache

import (
	"tm3270/internal/cache"
	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/telemetry"
)

// Fault is the data-cache fault-injection surface. Injectors implement
// it; a nil Fault field is the fault-free fast path.
type Fault interface {
	// Prefetch intercepts a region-prefetch candidate: drop suppresses
	// the fill entirely, delay adds CPU cycles to its completion.
	Prefetch(lineAddr uint32) (drop bool, delay int64)
	// Fill observes every demand line fill (cache-line corruption taps).
	Fill(lineAddr uint32)
}

// Kind is the access type.
type Kind int

const (
	// Load is a data read (includes collapsed loads and SUPER_LD32R).
	Load Kind = iota
	// Store is a data write.
	Store
	// Alloc is the ALLOCD cache-line allocation.
	Alloc
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "alloc"
	}
}

// Stats are the data-cache event counters. The three Stall* fields
// split every stall cycle the cache returns by cause; their sum always
// equals the total stall cycles handed back from Access.
type Stats struct {
	LoadHits     int64
	LoadMisses   int64
	StoreHits    int64
	StoreMisses  int64
	Allocs       int64
	Copybacks    int64
	PartialHits  int64 // hits on lines still in flight (prefetch/fetch)
	MergeMisses  int64 // loads hitting allocated lines with invalid bytes
	LineCrossers int64 // non-aligned accesses spanning two lines

	StallMiss     int64 // stall cycles servicing demand misses and merges
	StallInFlight int64 // stall cycles waiting on an in-flight fill
	StallCWB      int64 // stall cycles on cache-write-buffer backpressure
}

// StallTotal is the sum of the per-cause stall cycles.
func (s *Stats) StallTotal() int64 { return s.StallMiss + s.StallInFlight + s.StallCWB }

// DCache is the data-cache timing model.
type DCache struct {
	t   *config.Target
	arr *cache.Cache
	biu *mem.BIU
	pf  *prefetch.Unit // nil when the target has no region prefetcher

	prefetched map[uint32]bool // line addr -> landed via prefetch, unused yet

	// Fault, when non-nil, intercepts prefetches and observes fills.
	Fault Fault

	// Events, when non-nil, receives miss/refill/prefetch/CWB trace
	// events on the dcache, prefetch and CWB lanes.
	Events *telemetry.Trace

	// cwb holds the busy-until times of the cache write buffer entries:
	// a write-missing store occupies an entry until its line fetch
	// completes (fetch-on-write-miss), and the processor stalls only
	// when every entry is occupied.
	cwb []int64

	Stats Stats
}

// New builds the model. pf may be nil.
func New(t *config.Target, biu *mem.BIU, pf *prefetch.Unit) *DCache {
	byteValidity := t.DCache.WriteMiss == config.AllocateOnWriteMiss
	return &DCache{
		t:          t,
		arr:        cache.New(t.DCache, byteValidity),
		biu:        biu,
		pf:         pf,
		prefetched: make(map[uint32]bool),
		cwb:        make([]int64, t.CWBEntries),
	}
}

// Array exposes the underlying arrays (tests).
func (d *DCache) Array() *cache.Cache { return d.arr }

// PF exposes the attached prefetch unit, nil without one (tests,
// telemetry wiring).
func (d *DCache) PF() *prefetch.Unit { return d.pf }

// Access models one memory operation at CPU cycle now and returns the
// stall cycles it adds. Non-aligned accesses spanning a line boundary
// are penalty-free on a hit but may take two misses.
func (d *DCache) Access(now int64, addr uint32, size int, kind Kind) int64 {
	if kind == Alloc {
		d.Stats.Allocs++
		return d.alloc(now, addr)
	}
	first := d.arr.LineAddr(addr)
	last := d.arr.LineAddr(addr + uint32(size) - 1)
	stall := d.one(now, addr, size, first, kind)
	if last != first {
		d.Stats.LineCrossers++
		// Bytes in the second line.
		n := int(addr) + size - int(last)
		stall += d.one(now+stall, last, n, last, kind)
	}
	if kind == Load && d.pf != nil {
		d.maybePrefetch(now+stall, addr)
	}
	return stall
}

// one handles the portion of an access within a single line. The
// lookup promotes on a hit (both the load- and store-hit paths always
// touch their line; promoting at lookup time is the same LRU outcome
// in one set scan).
func (d *DCache) one(now int64, addr uint32, size int, lineAddr uint32, kind Kind) int64 {
	l, hit := d.arr.LookupTouch(lineAddr)
	switch kind {
	case Load:
		if hit {
			stall := int64(0)
			if l.ReadyAt > now {
				// In-flight fill (prefetch or write-fetch): partial hit.
				d.Stats.PartialHits++
				stall = l.ReadyAt - now
				d.Stats.StallInFlight += stall
				if d.pf != nil && len(d.prefetched) != 0 && d.prefetched[lineAddr] {
					// Prefetch issued but not timely: count it late
					// (once) rather than useful.
					d.pf.Stats.Late++
					delete(d.prefetched, lineAddr)
				}
				if d.Events != nil {
					d.Events.Complete(telemetry.LaneDCache, "stall:inflight", "dstall",
						now, stall, map[string]any{"line": lineAddr})
				}
			}
			if !d.arr.BytesValid(l, addr, size) {
				// Allocated line with holes: fetch and merge.
				d.Stats.MergeMisses++
				done := d.biu.Read(d.t, now+stall, d.t.DCache.LineBytes, false)
				d.arr.SetAllValid(l)
				d.Stats.StallMiss += done - (now + stall)
				if d.Events != nil {
					d.Events.Complete(telemetry.LaneDCache, "merge-fetch", "dmiss",
						now+stall, done-(now+stall), map[string]any{"line": lineAddr})
				}
				stall = done - now
			} else {
				d.Stats.LoadHits++
				if d.pf != nil && len(d.prefetched) != 0 && d.prefetched[lineAddr] {
					d.pf.Stats.Useful++
					delete(d.prefetched, lineAddr)
				}
			}
			return stall
		}
		d.Stats.LoadMisses++
		d.evictFor(now, lineAddr)
		v := d.arr.Victim(lineAddr)
		d.arr.Fill(v, lineAddr, true)
		done := d.biu.Read(d.t, now, d.t.DCache.LineBytes, false)
		if d.Fault != nil {
			d.Fault.Fill(lineAddr)
		}
		d.Stats.StallMiss += done - now
		if d.Events != nil {
			d.Events.Complete(telemetry.LaneDCache, "load-miss", "dmiss",
				now, done-now, map[string]any{"line": lineAddr, "addr": addr})
		}
		return done - now

	default: // Store
		if hit {
			d.Stats.StoreHits++
			d.arr.MarkValid(l, addr, size)
			l.Dirty = true
			// Stores complete through the cache write buffer; an
			// in-flight fill does not stall them.
			return 0
		}
		d.Stats.StoreMisses++
		d.evictFor(now, lineAddr)
		v := d.arr.Victim(lineAddr)
		if d.t.DCache.WriteMiss == config.AllocateOnWriteMiss {
			// Allocate without fetching: only the stored bytes become
			// valid; no memory read, no stall.
			d.arr.Fill(v, lineAddr, false)
			d.arr.MarkValid(v, addr, size)
			v.Dirty = true
			return 0
		}
		// Fetch-on-write-miss: the missing line is fetched before the
		// write retires — the write-miss penalty the TM3270's
		// allocate-on-write-miss policy eliminates (Section 4.1). The
		// cache write buffer absorbs the fetch latency: the store parks
		// in a CWB entry until its line arrives, and the processor
		// stalls only when every entry is occupied.
		stall := int64(0)
		e := 0
		for i := 1; i < len(d.cwb); i++ {
			if d.cwb[i] < d.cwb[e] {
				e = i
			}
		}
		if d.cwb[e] > now {
			stall = d.cwb[e] - now
			d.Stats.StallCWB += stall
			if d.Events != nil {
				d.Events.Complete(telemetry.LaneCWB, "stall:cwb-full", "dstall",
					now, stall, map[string]any{"line": lineAddr})
			}
		}
		d.arr.Fill(v, lineAddr, true)
		done := d.biu.Read(d.t, now+stall, d.t.DCache.LineBytes, false)
		if d.Fault != nil {
			d.Fault.Fill(lineAddr)
		}
		v.ReadyAt = done
		v.Dirty = true
		d.cwb[e] = done
		if d.Events != nil {
			d.Events.Complete(telemetry.LaneCWB, "cwb-park", "cwb",
				now+stall, done-(now+stall), map[string]any{"line": lineAddr, "entry": e})
		}
		return stall
	}
}

// alloc validates a whole line without fetching it (ALLOCD).
func (d *DCache) alloc(now int64, addr uint32) int64 {
	lineAddr := d.arr.LineAddr(addr)
	if l, hit := d.arr.LookupTouch(lineAddr); hit {
		d.arr.SetAllValid(l)
		l.Dirty = true
		return 0
	}
	d.evictFor(now, lineAddr)
	v := d.arr.Victim(lineAddr)
	d.arr.Fill(v, lineAddr, true)
	v.Dirty = true
	return 0
}

// evictFor performs the copyback of the victim that Fill will replace.
func (d *DCache) evictFor(now int64, lineAddr uint32) {
	v := d.arr.Victim(lineAddr)
	if v.Valid && v.Dirty {
		// Only validated bytes travel back over the bus (the SoC
		// protocol supports byte-validity transfers).
		n := d.arr.ValidByteCount(v)
		d.biu.Write(d.t, now, n)
		d.Stats.Copybacks++
	}
	if v.Valid {
		va := d.arr.VictimAddr(v, lineAddr)
		if len(d.prefetched) != 0 && d.prefetched[va] {
			// The prefetched line never saw a demand access.
			if d.pf != nil {
				d.pf.Stats.Evicted++
			}
			delete(d.prefetched, va)
		}
	}
}

// maybePrefetch asks the region unit for a candidate and issues the
// fill if the line is absent.
func (d *DCache) maybePrefetch(now int64, loadAddr uint32) {
	cand, ok := d.pf.Candidate(loadAddr)
	if !ok {
		return
	}
	lineAddr := d.arr.LineAddr(cand)
	if _, hit := d.arr.Lookup(lineAddr); hit {
		d.pf.Stats.Dropped++
		return
	}
	var extra int64
	if d.Fault != nil {
		drop, delay := d.Fault.Prefetch(lineAddr)
		if drop {
			d.pf.Stats.Dropped++
			return
		}
		extra = delay
	}
	d.evictFor(now, lineAddr)
	v := d.arr.Victim(lineAddr)
	d.arr.Fill(v, lineAddr, true)
	v.ReadyAt = d.biu.Read(d.t, now, d.t.DCache.LineBytes, true) + extra
	d.prefetched[lineAddr] = true
	d.pf.Stats.Issued++
	if d.Events != nil {
		d.Events.Complete(telemetry.LanePrefetch, "prefetch-fill", "prefetch",
			now, v.ReadyAt-now, map[string]any{"line": lineAddr, "trigger": loadAddr})
	}
}
