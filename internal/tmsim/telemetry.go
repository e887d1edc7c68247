package tmsim

import "tm3270/internal/telemetry"

// StallCounterNames are the disjoint per-cause stall counters of the
// registry: for any completed run their snapshot sum equals
// sim.cycles - sim.instrs (every cycle is either an issue cycle or a
// stall with exactly one cause).
var StallCounterNames = []string{
	"stall.fetch", "stall.jump",
	"stall.data.miss", "stall.data.inflight", "stall.data.cwb",
}

// Registry builds the unified counter registry over every unit of the
// machine: simulator core, stall causes, data cache, instruction cache,
// bus interface unit and (when present) the region prefetcher. The
// registry reads the live counters only at snapshot time, so holding
// one costs nothing during simulation.
func (m *Machine) Registry() *telemetry.Registry {
	r := telemetry.NewRegistry()

	s := &m.Stats
	r.Counter("sim.instrs", &s.Instrs)
	r.Counter("sim.ops", &s.Ops)
	r.Counter("sim.ops.exec", &s.ExecOps)
	r.Counter("sim.ops.load", &s.LoadOps)
	r.Counter("sim.ops.store", &s.StoreOps)
	r.Counter("sim.cycles", &s.Cycles)
	r.Counter("sim.jumps", &s.Jumps)
	r.Counter("sim.jumps.taken", &s.Taken)

	// Translation-cache counters, read live from the block cache (zero
	// until a run starts).
	r.Func("sim.blockcache.translated", func() int64 { return m.BlockCacheStats().Translated })
	r.Func("sim.blockcache.hits", func() int64 { return m.BlockCacheStats().Hits })

	// Disjoint stall causes (see StallCounterNames): stall.fetch is the
	// sequential fetch stall with the jump penalty carved out.
	r.Func("stall.fetch", func() int64 { return s.FetchStalls - s.JumpStalls })
	r.Counter("stall.jump", &s.JumpStalls)
	d := &m.DC.Stats
	r.Counter("stall.data.miss", &d.StallMiss)
	r.Counter("stall.data.inflight", &d.StallInFlight)
	r.Counter("stall.data.cwb", &d.StallCWB)

	r.Counter("dcache.load.hit", &d.LoadHits)
	r.Counter("dcache.load.miss", &d.LoadMisses)
	r.Counter("dcache.store.hit", &d.StoreHits)
	r.Counter("dcache.store.miss", &d.StoreMisses)
	r.Counter("dcache.alloc", &d.Allocs)
	r.Counter("dcache.copyback", &d.Copybacks)
	r.Counter("dcache.hit.partial", &d.PartialHits)
	r.Counter("dcache.miss.merge", &d.MergeMisses)
	r.Counter("dcache.line.cross", &d.LineCrossers)

	ic := &m.IC.Stats
	r.Func("icache.chunk", func() int64 { return ic.Hits + ic.Misses })
	r.Counter("icache.hit", &ic.Hits)
	r.Counter("icache.miss", &ic.Misses)

	b := m.BIU
	r.Func("bus.read", func() int64 { return b.DemandReads + b.PrefetchRead })
	r.Counter("bus.write", &b.Writes)
	r.Counter("bus.read.demand", &b.DemandReads)
	r.Counter("bus.read.prefetch", &b.PrefetchRead)
	r.Counter("bus.bytes.read", &b.BytesRead)
	r.Counter("bus.bytes.written", &b.BytesWritten)

	if m.PF != nil {
		p := &m.PF.Stats
		r.Counter("prefetch.trigger", &p.Triggers)
		r.Counter("prefetch.issued", &p.Issued)
		r.Counter("prefetch.useful", &p.Useful)
		r.Counter("prefetch.late", &p.Late)
		r.Counter("prefetch.dropped", &p.Dropped)
		r.Counter("prefetch.evicted", &p.Evicted)
	}
	return r
}

// AnnotateSpan writes the run's headline cycle attribution into a
// request span — the join point between the serving stack's span
// trees and the simulator's existing counter/trace telemetry. The
// stall split mirrors StallCounterNames; when an event trace was
// armed, the span also records how many structured events it holds so
// a request trace points at the cycle-level trace behind it.
func (m *Machine) AnnotateSpan(sp *telemetry.Span) {
	if m == nil || sp == nil {
		return
	}
	s, d := &m.Stats, &m.DC.Stats
	sp.Annotate("cycles", s.Cycles)
	sp.Annotate("instrs", s.Instrs)
	sp.Annotate("stall.fetch", s.FetchStalls-s.JumpStalls)
	sp.Annotate("stall.jump", s.JumpStalls)
	sp.Annotate("stall.data.miss", d.StallMiss)
	sp.Annotate("stall.data.inflight", d.StallInFlight)
	sp.Annotate("stall.data.cwb", d.StallCWB)
	sp.Annotate("dcache.miss", d.LoadMisses+d.StoreMisses)
	if m.Events != nil {
		sp.Annotate("trace.events", m.Events.Len())
		sp.Annotate("trace.dropped", m.Events.Dropped())
	}
}

// SetEventTrace arms the structured event trace on the machine and on
// every memory-system unit; nil disarms it.
func (m *Machine) SetEventTrace(t *telemetry.Trace) {
	m.Events = t
	m.IC.Events = t
	m.DC.Events = t
	m.BIU.Events = t
}

// EnableProfile allocates the per-PC cycle-attribution profile over the
// loaded kernel and returns it.
func (m *Machine) EnableProfile() *telemetry.Profile {
	m.Profile = telemetry.NewProfile(len(m.Code.Instrs))
	m.Profile.PCs = m.Enc.Addr
	return m.Profile
}
