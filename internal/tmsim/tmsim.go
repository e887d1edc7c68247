// Package tmsim is the TM3270 processor model: it executes scheduled
// VLIW code with exact functional semantics and cycle-level timing.
//
// Timing follows the TriMedia execution model: the pipeline is fully
// exposed, so a correct schedule never interlocks — one VLIW instruction
// issues per cycle, and all dynamic stalls come from the memory system
// (instruction fetch, data-cache misses, bus occupancy). Register
// results commit `latency` instructions after issue, which the
// simulator honors literally: a schedule that violates a latency reads
// a stale value here and is caught by the differential tests against
// the sequential reference interpreter.
package tmsim

import (
	"context"
	"fmt"
	"io"

	"tm3270/internal/blockcache"
	"tm3270/internal/config"
	"tm3270/internal/dcache"
	"tm3270/internal/encode"
	"tm3270/internal/icache"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/telemetry"
)

// CodeBase is the byte address where kernels are linked.
const CodeBase = 0x0100_0000

// Stats is the execution report. The stall counters split every
// non-issue cycle by cause: FetchStalls and DataStalls are totals.
// JumpStalls is the part of FetchStalls after taken jumps, and the data
// cache alone splits DataStalls by cause (dcache.Stats.StallMiss,
// StallInFlight, StallCWB), so
//
//	Cycles == Instrs + FetchStalls + DataStalls
//	FetchStalls == (FetchStalls - JumpStalls) + JumpStalls
//	DataStalls == DC.Stats.StallTotal()
//
// hold for every completed run (asserted by the telemetry tests).
type Stats struct {
	Instrs   int64 // VLIW instructions issued
	Ops      int64 // operations issued (pad NOPs excluded)
	ExecOps  int64 // operations whose guard enabled execution
	Cycles   int64 // total cycles including stalls
	Jumps    int64
	Taken    int64
	LoadOps  int64
	StoreOps int64

	FetchStalls int64 // instruction-fetch stalls, jump penalty included
	JumpStalls  int64 // fetch stalls on the first fetch after a taken jump

	DataStalls int64 // data-side stalls (total)
}

// OPI is the effective operations per VLIW instruction.
func (s *Stats) OPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.ExecOps) / float64(s.Instrs)
}

// CPI is cycles per VLIW instruction.
func (s *Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// Seconds converts cycles to wall-clock time at the target frequency.
func (s *Stats) Seconds(t *config.Target) float64 {
	return float64(s.Cycles) / (float64(t.FreqMHz) * 1e6)
}

// Machine is one processor instance with loaded code.
type Machine struct {
	Code   *sched.Code
	RegMap *regalloc.Map
	Enc    *encode.Encoded
	Target config.Target

	Mem *mem.Func
	BIU *mem.BIU
	IC  *icache.ICache
	DC  *dcache.DCache
	PF  *prefetch.Unit

	regs isa.RegFile

	// MaxInstrs aborts runaway executions (0 = default limit) with a
	// watchdog trap.
	MaxInstrs int64

	// StrictMem, when set, traps loads that touch bytes never written
	// (instead of silently reading zeroes) and stores into the reserved
	// null page. Validity is tracked per byte, matching the reference
	// model's strict memory (the strict co-simulation test holds the
	// two models to identical trap behaviour).
	StrictMem bool

	// LoadFault, when non-nil, taps the value of every load the
	// running program makes from the memory image (fault injection).
	// Reads of the image outside a run, such as an output check, never
	// pass through it.
	LoadFault LoadFault

	// InstrHook, when non-nil, is called at every instruction boundary
	// after in-flight register writes due at that boundary have
	// committed and before the instruction executes. The differential
	// harness uses it to step a reference model in lockstep and compare
	// architectural state; RegSnapshot exposes that state.
	InstrHook func(cycle, issue int64, idx int)

	// Trace, when non-nil, receives a one-line record per issued
	// instruction for the first TraceLimit instructions (default 200):
	// cycle, instruction index, and the operations issued.
	Trace      io.Writer
	TraceLimit int64

	// Events, when non-nil, receives the structured event trace (set it
	// via SetEventTrace so the cache and bus models emit too). Per-slot
	// issue events stop after the first 10,000 instructions; TraceLimit
	// bounds the text trace only.
	Events *telemetry.Trace

	// Profile, when non-nil, attributes every cycle to its instruction
	// index by cause (EnableProfile allocates it).
	Profile *telemetry.Profile

	bc *blockcache.Cache

	rec   *recorder
	curOp string // mnemonic of the memory op in flight (trap context)

	Stats Stats
}

// Load builds a machine around an already-encoded image (a compile
// artifact), skipping re-encoding. The code, register map and encoding
// are read-only during execution, so one artifact may back any number
// of concurrent machines; only the memory image is private per machine.
func Load(code *sched.Code, rm *regalloc.Map, enc *encode.Encoded, image *mem.Func) *Machine {
	t := code.Target
	m := &Machine{
		Code:   code,
		RegMap: rm,
		Enc:    enc,
		Target: t,
		Mem:    image,
		BIU:    mem.NewBIU(&t),
	}
	m.IC = icache.New(&t, m.BIU)
	if t.HasRegionPrefetch {
		m.PF = &prefetch.Unit{}
	}
	m.DC = dcache.New(&t, m.BIU, m.PF)
	return m
}

// SetReg initializes a kernel argument register.
func (m *Machine) SetReg(v prog.VReg, val uint32) {
	m.regs.Write(m.RegMap.Reg(v), val)
}

// Reg reads a register by virtual name (results, tests).
func (m *Machine) Reg(v prog.VReg) uint32 { return m.regs.Read(m.RegMap.Reg(v)) }

// RegSnapshot returns the architectural register file with the
// hardwired r0/r1 values materialized (differential testing).
func (m *Machine) RegSnapshot() [isa.NumRegs]uint32 { return m.regs.Snapshot() }

// SetPhysReg initializes a physical register directly. The differential
// harness uses it to install arguments already mapped through an
// artifact's register allocation.
func (m *Machine) SetPhysReg(r isa.Reg, v uint32) { m.regs.Write(r, v) }

// LoadFault observes (and may corrupt) the value of a program load.
// Fault injectors implement it.
type LoadFault interface {
	// TapLoad receives the loaded value and returns the value the
	// processor actually sees.
	TapLoad(addr uint32, n int, v uint64) uint64
}

// busMem routes operation-level memory accesses either to the
// memory-mapped prefetch configuration registers or to the memory image.
// Malformed accesses raise memory traps (as panics converted to
// TrapErrors at the Run boundary, since isa.Memory carries no error
// path — like the precise exceptions of the real load/store unit).
type busMem struct {
	f      *mem.Func
	pf     *prefetch.Unit
	strict bool
	fault  LoadFault
}

// nullPageEnd bounds the reserved null page: strict mode treats any
// store below it as a null-pointer-style fault.
const nullPageEnd = 0x1000

func (b busMem) checkMMIO(addr uint32, n int) {
	if !prefetch.IsMMIO(addr) {
		// Accesses straddling the block boundary from below are
		// malformed too.
		if addr < prefetch.MMIOBase && addr+uint32(n) > prefetch.MMIOBase {
			panic(&memTrap{kind: TrapMMIO, addr: addr,
				reason: fmt.Sprintf("%d-byte access straddles the prefetch MMIO block", n)})
		}
		return
	}
	switch {
	case b.pf == nil:
		panic(&memTrap{kind: TrapMMIO, addr: addr,
			reason: "prefetch MMIO access on a target without a region prefetcher"})
	case n != 4:
		panic(&memTrap{kind: TrapMMIO, addr: addr,
			reason: fmt.Sprintf("%d-byte prefetch MMIO access (registers are 32-bit)", n)})
	case addr%4 != 0:
		panic(&memTrap{kind: TrapMMIO, addr: addr,
			reason: "misaligned prefetch MMIO access"})
	}
}

func (b busMem) Load(addr uint32, n int) uint64 {
	b.checkMMIO(addr, n)
	if b.pf != nil && prefetch.IsMMIO(addr) {
		return uint64(b.pf.LoadMMIO(addr))
	}
	if b.strict && !b.f.Defined(addr, n) {
		panic(&memTrap{kind: TrapUnmappedLoad, addr: addr,
			reason: fmt.Sprintf("%d-byte load touches never-written bytes", n)})
	}
	v := b.f.Load(addr, n)
	if b.fault != nil {
		v = b.fault.TapLoad(addr, n, v)
	}
	return v
}

func (b busMem) Store(addr uint32, n int, v uint64) {
	b.checkMMIO(addr, n)
	if b.pf != nil && prefetch.IsMMIO(addr) {
		b.pf.StoreMMIO(addr, uint32(v))
		return
	}
	if b.strict && addr < nullPageEnd {
		panic(&memTrap{kind: TrapUnmappedStore, addr: addr,
			reason: fmt.Sprintf("%d-byte store into the null page", n)})
	}
	b.f.Store(addr, n, v)
}

// RunContext executes the loaded kernel to completion. Execution
// faults — malformed memory accesses, control-flow violations,
// watchdog expiry, cancellation, and any internal panic of the
// simulator core — are returned as a *TrapError carrying the PC,
// cycle, register dump and the flight-recorder tail at the fault.
// The loop polls ctx at the watchdog cadence (every 8192 issued
// instructions) and aborts with a TrapCanceled whose Cause unwraps to
// ctx.Err(), so callers can errors.Is against context.Canceled or
// DeadlineExceeded.
func (m *Machine) RunContext(ctx context.Context) (err error) {
	m.rec = newRecorder()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Locate the fault at the last issued instruction.
		var cycle, issue int64
		idx := -1
		if e, ok := m.rec.last(); ok {
			cycle, issue, idx = e.cycle, e.issue, e.idx
		}
		if mt, ok := r.(*memTrap); ok {
			t := m.trap(mt.kind, cycle, issue, idx, mt.reason)
			t.Addr = mt.addr
			t.Op = m.curOp
			err = t
			return
		}
		t := m.trap(TrapInternal, cycle, issue, idx, fmt.Sprintf("recovered panic: %v", r))
		t.Panic = r
		err = t
	}()

	return m.runFast(ctx)
}

// trace emits one instruction record.
func (m *Machine) trace(cycle, issue int64, idx int, in *sched.Instr) {
	fmt.Fprintf(m.Trace, "c%-8d i%-6d @%d:", cycle, issue, idx)
	empty := true
	for s := 0; s < 5; s++ {
		so := in.Slots[s]
		if so.Op == nil || so.Second {
			continue
		}
		empty = false
		info := so.Op.Info()
		fmt.Fprintf(m.Trace, " [%d]%s", s+1, info.Name)
	}
	if empty {
		fmt.Fprint(m.Trace, " (nop)")
	}
	fmt.Fprintln(m.Trace)
}
