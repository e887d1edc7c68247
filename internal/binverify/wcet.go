package binverify

import (
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/prefetch"
)

// The static cycle-bound model. tmsim's cycle count decomposes exactly
// into issued instructions + fetch stalls + data stalls, so the bound
// is built from the same three parts:
//
//   - Issue: every reachable instruction costs one cycle per execution;
//     executions are bounded by the product of the bounds of the
//     enclosing natural loops (sound for reducible CFGs — the analysis
//     refuses to bound irreducible ones).
//
//   - Bus charges: the BIU serializes transactions. A transaction of
//     tr transfer cycles occupies the bus for overhead+tr cycles, and
//     a demand read additionally hides latency+tr cycles of its own
//     completion. Because the core is single-threaded and a stall
//     advances time to the transaction's completion, each transaction's
//     completion is waited on at most once; charging every read
//     latency + 2*(overhead+tr) and every write/copyback overhead+tr
//     therefore covers both its own stall and its backlog contribution
//     to any later access.
//
//   - Data: a load misses at most per touched line (<= 2 for unaligned
//     sizes), each miss costing a copyback eviction plus a demand read;
//     on prefetching targets every load may additionally trigger one
//     region-prefetch fill. A store miss costs at most an eviction plus
//     a fetch-on-write/merge read per line; allocd costs one eviction.
//
//   - Fetch: instruction fetch misses at line granularity. When the
//     kernel's code lines provably fit their icache sets (lines per set
//     <= associativity) each line misses at most once regardless of
//     control flow, so the fetch charge is lines * read; otherwise the
//     model falls back to two line reads per executed instruction.
type CycleBound struct {
	Bounded bool
	Cycles  int64 // total worst-case cycles (valid when Bounded)

	Issue, Fetch, Data int64 // decomposition of Cycles

	Loops []LoopInfo
	Notes []string // reasons for unboundedness or fallback choices
}

// LoopInfo is one natural loop's bound in the report.
type LoopInfo struct {
	HeaderPC uint32
	Header   int   // instruction index of the header
	Bound    int64 // 0 when unknown
	Source   string
}

// WCET computes the whole-program worst-case cycle bound of a decoded
// binary on the given target. The semantic layer (loops, ranges) runs
// regardless of the Options' check toggles; diagnostics are reported
// through Verify, not here.
func WCET(dec []encode.DecInstr, t *config.Target, opts *Options) *CycleBound {
	use := Options{}
	if opts != nil {
		use = *opts
	}
	if !use.semantic() {
		use.LoopBounds = map[uint32]int{}
	}
	v := newVerifier(dec, t, &use)
	if len(dec) > 0 {
		v.run()
	}
	return v.cycleBound()
}

const satCycles = int64(1) << 62

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCycles/b {
		return satCycles
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > satCycles-b {
		return satCycles
	}
	return a + b
}

// busCharges are the per-transaction worst-case cycle charges.
type busCharges struct {
	readData  int64 // demand/background read of one dcache line
	writeData int64 // copyback of one dcache line
	readInstr int64 // read of one icache line
}

func charges(t *config.Target) busCharges {
	overhead := int64((t.MemOverheadNs*t.FreqMHz + 999) / 1000)
	lat := int64(t.MemLatencyCycles())
	trD := int64(t.CyclesPerLine(t.DCache.LineBytes))
	trI := int64(t.CyclesPerLine(t.ICache.LineBytes))
	return busCharges{
		readData:  lat + 2*(overhead+trD),
		writeData: overhead + trD,
		readInstr: lat + 2*(overhead+trI),
	}
}

func (v *verifier) cycleBound() *CycleBound {
	cb := &CycleBound{Bounded: true}
	n := len(v.dec)
	if n == 0 {
		return cb
	}

	if v.rangesCapped {
		cb.Notes = append(cb.Notes, fmt.Sprintf(
			"value-range analysis stopped after %d iterations without converging; all ranges treated as unknown", v.rangeCap))
	}
	for _, l := range v.loops {
		if l.irreducible {
			cb.Bounded = false
			cb.Notes = append(cb.Notes, fmt.Sprintf(
				"irreducible control flow at pc=%#x", v.dec[l.header].Addr))
			continue
		}
		cb.Loops = append(cb.Loops, LoopInfo{
			HeaderPC: v.dec[l.header].Addr, Header: l.header,
			Bound: l.bound, Source: l.source,
		})
		if l.bound == 0 {
			cb.Bounded = false
			cb.Notes = append(cb.Notes, fmt.Sprintf(
				"loop at pc=%#x has no bound", v.dec[l.header].Addr))
		}
	}
	if !cb.Bounded {
		return cb
	}

	// Worst-case executions per instruction: the product of the bounds
	// of every loop whose body contains it.
	count := make([]int64, n)
	for i := 0; i < n; i++ {
		if !v.reach[i] {
			continue
		}
		count[i] = 1
		for _, l := range v.loops {
			if l.body.has(i) {
				count[i] = satMul(count[i], l.bound)
			}
		}
	}

	ch := charges(v.t)
	lineB := int64(v.t.DCache.LineBytes)
	for i := 0; i < n; i++ {
		if count[i] == 0 {
			continue
		}
		cb.Issue = satAdd(cb.Issue, count[i])
	}
	if foot, ok := v.dataFootprint(count); ok {
		// Every access's address interval is known and the union of
		// touched lines fits its cache sets: each line is filled at
		// most once (allocations find an invalid way first), so the
		// whole data traffic is one eviction + fill per footprint line.
		cb.Data = satMul(int64(len(foot)), ch.writeData+ch.readData)
		cb.Notes = append(cb.Notes, fmt.Sprintf(
			"data footprint of %d lines fits the cache: one fill per line", len(foot)))
	} else {
		for i := 0; i < n; i++ {
			if count[i] == 0 {
				continue
			}
			var per int64
			for k := range v.ops[i] {
				op := &v.ops[i][k]
				if neverExec(op) {
					continue
				}
				switch {
				case op.info.IsLoad:
					lines := memLines(v, i, op, lineB)
					per = satAdd(per, lines*(ch.writeData+ch.readData))
					if v.t.HasRegionPrefetch {
						per = satAdd(per, ch.writeData+ch.readData)
					}
				case op.info.MemBytes == 0 && op.info.IsStore:
					per = satAdd(per, ch.writeData) // allocd: eviction only
				case op.info.IsStore:
					lines := memLines(v, i, op, lineB)
					per = satAdd(per, lines*(ch.writeData+ch.readData))
				}
			}
			cb.Data = satAdd(cb.Data, satMul(count[i], per))
		}
	}

	cb.Fetch = v.fetchBound(count, ch, cb)
	cb.Cycles = satAdd(satAdd(cb.Issue, cb.Fetch), cb.Data)
	return cb
}

// footprintCap bounds the span of a single access interval admitted
// into the persistent-footprint argument; wider intervals would
// enumerate too many lines to be worth it.
const footprintCap = int64(1) << 22

// dataFootprint attempts the cache-persistence argument for the data
// side. It succeeds when every reachable load/store has a statically
// known address interval and the union of all touched cache lines has
// at most `ways` distinct lines per set — then allocations always find
// an invalid way, no line is ever evicted, and each line misses at most
// once regardless of access order. Accesses provably confined to the
// prefetch MMIO window bypass the data cache and are excluded; if any
// MMIO store exists (the prefetch engine may be armed), the declared
// memory map's lines join the footprint, since region prefetches land
// in the data cache too. (Regions are assumed to be programmed within
// the declared map — the mem-range proofs pin every CPU access there.)
func (v *verifier) dataFootprint(count []int64) (map[int64]bool, bool) {
	if v.ranges == nil {
		return nil, false
	}
	lineB := int64(v.t.DCache.LineBytes)
	const mmioLo, mmioHi = int64(prefetch.MMIOBase), int64(prefetch.MMIOBase) + int64(prefetch.MMIOSize)
	foot := map[int64]bool{}
	mmioStore := false
	for i := range v.dec {
		if count[i] == 0 {
			continue
		}
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if neverExec(op) || (!op.info.IsLoad && !op.info.IsStore) {
				continue
			}
			addr, ok := memAddress(op, v.ranges[i])
			if !ok {
				return nil, false
			}
			size := int64(op.info.MemBytes)
			if size < 1 {
				size = 1
			}
			if addr.lo >= mmioLo && addr.hi+size <= mmioHi {
				mmioStore = mmioStore || op.info.IsStore
				continue // MMIO bypasses the data cache
			}
			if addr.hi+size > mmioLo && addr.lo < mmioHi {
				return nil, false // may straddle the MMIO window
			}
			if addr.hi-addr.lo > footprintCap {
				return nil, false
			}
			for l := addr.lo / lineB; l <= (addr.hi+size-1)/lineB; l++ {
				foot[l] = true
			}
		}
	}
	if v.t.HasRegionPrefetch && mmioStore {
		for _, reg := range v.opts.MemMap {
			if int64(reg.Hi)-int64(reg.Lo) > footprintCap {
				return nil, false
			}
			for l := int64(reg.Lo) / lineB; l <= (int64(reg.Hi)-1)/lineB; l++ {
				foot[l] = true
			}
		}
	}
	sets := int64(v.t.DCache.Sets())
	perSet := map[int64]int{}
	for l := range foot {
		s := l % sets
		perSet[s]++
		if perSet[s] > v.t.DCache.Ways {
			return nil, false
		}
	}
	return foot, true
}

// memLines bounds the cache lines one access touches: exact when the
// address interval is a singleton, otherwise 1 for single-byte accesses
// and 2 for anything that may straddle a line boundary.
func memLines(v *verifier, i int, op *vop, lineB int64) int64 {
	size := int64(op.info.MemBytes)
	if size <= 1 {
		return 1
	}
	if v.ranges != nil {
		if addr, ok := memAddress(op, v.ranges[i]); ok && addr.singleton() {
			return (addr.lo+size-1)/lineB - addr.lo/lineB + 1
		}
	}
	return 2
}

// fetchBound charges instruction fetch. Preferred model: every distinct
// code line misses at most once, valid when the code's lines fit their
// icache sets. Fallback: two line reads per executed instruction.
func (v *verifier) fetchBound(count []int64, ch busCharges, cb *CycleBound) int64 {
	lineB := int64(v.t.ICache.LineBytes)
	sets := int64(v.t.ICache.Sets())
	lines := map[int64]bool{}
	for i := range v.dec {
		if count[i] == 0 {
			continue
		}
		lo := int64(v.dec[i].Addr) / lineB
		hi := (int64(v.dec[i].Addr) + int64(v.dec[i].Size) - 1) / lineB
		for l := lo; l <= hi; l++ {
			lines[l] = true
		}
	}
	perSet := map[int64]int{}
	fits := true
	for l := range lines {
		s := l % sets
		perSet[s]++
		if perSet[s] > v.t.ICache.Ways {
			fits = false
		}
	}
	if fits {
		return satMul(int64(len(lines)), ch.readInstr)
	}
	cb.Notes = append(cb.Notes,
		"code lines exceed icache associativity; fetch charged per executed instruction")
	var total int64
	for i := range v.dec {
		if count[i] == 0 {
			continue
		}
		lo := int64(v.dec[i].Addr) / lineB
		hi := (int64(v.dec[i].Addr) + int64(v.dec[i].Size) - 1) / lineB
		total = satAdd(total, satMul(count[i], satMul(hi-lo+1, ch.readInstr)))
	}
	return total
}
