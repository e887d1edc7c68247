package tmsim

import (
	"context"
	"fmt"

	"tm3270/internal/blockcache"
	"tm3270/internal/dcache"
	"tm3270/internal/isa"
	"tm3270/internal/prefetch"
	"tm3270/internal/telemetry"
)

// fastPend is one in-flight register write of the execution loop.
type fastPend struct {
	reg isa.Reg
	val uint32
}

// pendHorizon is the execution loop's commit horizon: in-flight writes are
// kept in a ring of pendHorizon slots indexed by (due issue & mask).
// Every slot is drained exactly when its issue arrives, so the ring is
// unambiguous as long as no result latency reaches the horizon —
// blockcache.Translate enforces that bound statically.
const pendHorizon = blockcache.MaxLatency + 1

// pendPerIssue bounds the writes landing at one issue boundary: the
// machine has 5 writeback ports, which the scheduler enforces
// (sched.WBPorts), so a slot never sees more than 5 register writes.
// Unscheduled inputs cannot reach the engine — every code image comes
// through the scheduler — but the ring still spills gracefully rather
// than trusting that invariant with memory safety.
const pendPerIssue = 8

// fastRing is the in-flight register write ring: fixed-size slots, no
// allocation in the steady state.
type fastRing struct {
	n     [pendHorizon]int32
	e     [pendHorizon][pendPerIssue]fastPend
	spill []fastSpill // overflow beyond the writeback-port bound
}

type fastSpill struct {
	at int64
	w  fastPend
}

// add schedules a write to land when `at` becomes the current issue.
func (p *fastRing) add(at int64, reg isa.Reg, val uint32) {
	s := at & (pendHorizon - 1)
	if i := p.n[s]; i < pendPerIssue {
		p.e[s][i] = fastPend{reg: reg, val: val}
		p.n[s] = i + 1
		return
	}
	p.spill = append(p.spill, fastSpill{at: at, w: fastPend{reg: reg, val: val}})
}

// commit applies the writes due at this issue, in insertion order
// (program order, by the scheduler's WAW discipline). Writes to the
// hardwired registers are dropped, as in RegFile.Write. The slot
// entries precede same-issue spill entries in insertion order by
// construction (spilling starts only once the slot is full).
func (p *fastRing) commit(issue int64, regs *[isa.NumRegs]uint32) {
	s := issue & (pendHorizon - 1)
	if p.n[s] > 0 {
		p.commitSlot(s, regs)
	}
	if len(p.spill) > 0 {
		p.commitSpill(issue, regs)
	}
}

func (p *fastRing) commitSlot(s int64, regs *[isa.NumRegs]uint32) {
	e := &p.e[s]
	for i := int32(0); i < p.n[s]; i++ {
		if w := e[i]; w.reg > isa.R1 {
			regs[w.reg] = w.val
		}
	}
	p.n[s] = 0
}

func (p *fastRing) commitSpill(issue int64, regs *[isa.NumRegs]uint32) {
	kept := p.spill[:0]
	for _, sw := range p.spill {
		if sw.at == issue {
			if sw.w.reg > isa.R1 {
				regs[sw.w.reg] = sw.w.val
			}
		} else {
			kept = append(kept, sw)
		}
	}
	p.spill = kept
}

// drain applies every remaining write in ascending due order, so the
// final register state is observable after the last instruction.
func (p *fastRing) drain(issue int64, regs *[isa.NumRegs]uint32) {
	for k := int64(0); k < pendHorizon; k++ {
		p.commit(issue+k, regs)
	}
}

// runFast is the execution loop: it runs the cycle and stall model —
// instruction-cache fetches, data-cache accesses, redirect timing,
// watchdog/cancellation cadence and trap semantics — over the
// predecoded micro-op blocks of internal/blockcache. Its results are
// pinned by the execution golden (internal/runner TestExecGolden) and
// checked against the reference model by the differential cosim gate.
//
// The loop executes the compile artifact, never bytes read back from
// the memory image, so a store into the code's address range changes
// memory only: the block cache is a pure memo of the artifact and is
// never invalidated.
//
// The observability hooks (Trace, Events, Profile) are served out of
// line behind one predictable branch on obs, so an unarmed run pays a
// single flag test per hook site. Armed, they read the scheduled
// instruction at idx, which the predecoded block does not carry.
func (m *Machine) runFast(ctx context.Context) error {
	if m.bc == nil {
		m.bc = blockcache.New(m.Code, m.RegMap, m.Enc, &m.Target)
	}
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 2_000_000_000
	}
	bus := busMem{f: m.Mem, pf: m.PF, strict: m.StrictMem, fault: m.LoadFault}
	delay := int64(m.Target.JumpDelaySlots)
	regs := m.regs.Raw()

	var (
		cycle         int64
		issue         int64
		idx           int
		redirectAfter int64 = -1
		redirectTo    int
		redirected    bool // next fetch follows a taken-jump redirect
		pend          fastRing
		// curChunk mirrors the instruction buffer's resident fetch
		// chunk (the IC's same-chunk short circuit): an instruction
		// whose bytes lie entirely in it makes Fetch a provable no-op,
		// so the call is skipped.
		curChunk  uint32
		haveChunk bool
	)
	nInstrs := len(m.Code.Instrs)
	obs := m.Trace != nil || m.Events != nil || m.Profile != nil
	var ectx isa.ExecContext
	ectx.Mem = bus

	for idx < nInstrs {
		b, berr := m.bc.Block(idx)
		if berr != nil {
			return m.trap(TrapInternal, cycle, issue, idx,
				fmt.Sprintf("block translation failed: %v", berr))
		}
		ops := b.Ops
		for bi := 0; bi < b.N; bi++ {
			if issue >= maxInstrs {
				return m.trap(TrapWatchdog, cycle, issue, idx,
					fmt.Sprintf("exceeded %d instructions", maxInstrs))
			}
			if issue&0x1fff == 0 {
				if cerr := ctx.Err(); cerr != nil {
					t := m.trap(TrapCanceled, cycle, issue, idx,
						fmt.Sprintf("run canceled: %v", cerr))
					t.Cause = cerr
					return t
				}
			}
			// Commit in-flight register writes due at this instruction
			// (the guards keep the common cases inlined; `commit` itself
			// is beyond the inliner's budget).
			if s := issue & (pendHorizon - 1); pend.n[s] != 0 {
				pend.commitSlot(s, regs)
			}
			if len(pend.spill) != 0 {
				pend.commitSpill(issue, regs)
			}

			if m.InstrHook != nil {
				m.InstrHook(cycle, issue, idx)
			}

			if !haveChunk || b.ChunkLo[bi] != curChunk || b.ChunkHi[bi] != curChunk {
				if st := m.IC.Fetch(cycle, b.FetchAddr[bi], int(b.FetchSize[bi])); st > 0 {
					m.Stats.FetchStalls += st
					if redirected {
						m.Stats.JumpStalls += st
					}
					if obs {
						m.observeFetchStall(cycle, idx, st, redirected)
					}
					cycle += st
				}
				curChunk, haveChunk = b.ChunkHi[bi], true
			}
			redirected = false
			m.rec.record(cycle, issue, idx)
			if obs {
				m.observeIssue(cycle, issue, idx)
			}

			lo, hi := b.OpFirst[bi], b.OpFirst[bi+1]
			// Ops counts primary slot operations regardless of guard —
			// static per instruction, so one add covers the whole packet.
			m.Stats.Ops += int64(hi - lo)
			for u := lo; u < hi; u++ {
				op := &ops[u]
				f := op.Flags
				// Register indices are isa.Reg (< NumRegs = 128) by
				// construction; the &127 masks are free and let the
				// compiler drop the bounds checks on the register file.
				g := regs[op.Guard&127]&1 == 1
				if f&blockcache.FlagGuardInv != 0 {
					g = !g
				}
				if !g {
					continue
				}
				m.Stats.ExecOps++
				// Gathering all four source slots unconditionally is
				// branchless and safe: unused slots index r0. Writes of
				// this same instruction land via the pending ring at
				// issue+latency ≥ issue+1, so fusing gather and execute
				// per op still reads every operand from pre-instruction
				// state, as the exposed pipeline does.
				ectx.Src[0] = regs[op.Src[0]&127]
				ectx.Src[1] = regs[op.Src[1]&127]
				ectx.Src[2] = regs[op.Src[2]&127]
				ectx.Src[3] = regs[op.Src[3]&127]
				ectx.Imm = op.Imm

				if f&blockcache.FlagMem != 0 {
					m.curOp = b.Info[u].Name
					var addr uint32
					switch {
					case f&blockcache.FlagAddrRR != 0:
						addr = ectx.Src[0] + ectx.Src[1]
					case f&blockcache.FlagAddrBase != 0:
						addr = ectx.Src[0]
					default:
						addr = ectx.Src[0] + op.Imm
					}
					size := int(op.MemBytes)
					mmio := m.PF != nil && prefetch.IsMMIO(addr)
					if f&blockcache.FlagLoad != 0 {
						m.Stats.LoadOps++
					} else {
						m.Stats.StoreOps++
					}
					if !mmio {
						kind := dcache.Load
						switch {
						case f&blockcache.FlagAlloc != 0:
							kind = dcache.Alloc
						case f&blockcache.FlagStore != 0:
							kind = dcache.Store
						}
						ds := &m.DC.Stats
						pm, pi, pw := ds.StallMiss, ds.StallInFlight, ds.StallCWB
						if st := m.DC.Access(cycle, addr, size, kind); st > 0 {
							m.Stats.DataStalls += st
							m.Stats.DataMissStalls += ds.StallMiss - pm
							m.Stats.DataInFlightStalls += ds.StallInFlight - pi
							m.Stats.DataCWBStalls += ds.StallCWB - pw
							if obs {
								m.Profile.Add(idx, telemetry.CauseDataMiss, ds.StallMiss-pm)
								m.Profile.Add(idx, telemetry.CauseDataInFlight, ds.StallInFlight-pi)
								m.Profile.Add(idx, telemetry.CauseDataCWB, ds.StallCWB-pw)
							}
							cycle += st
						}
					}
				}

				if f&blockcache.FlagJump != 0 {
					ectx.Taken = false
					op.Exec(&ectx)
					m.Stats.Jumps++
					if ectx.Taken {
						m.Stats.Taken++
						if redirectAfter >= 0 {
							t := m.trap(TrapDelayViolation, cycle, issue, idx,
								fmt.Sprintf("jump taken inside the delay window of the jump at issue %d", redirectAfter-delay))
							t.Op = b.Info[u].Name
							return t
						}
						ti := op.Target
						if ti < 0 {
							t := m.trap(TrapUnknownLabel, cycle, issue, idx,
								fmt.Sprintf("jump to unknown label %q", b.TargetLabel[u]))
							t.Op = b.Info[u].Name
							return t
						}
						redirectAfter = issue + delay
						redirectTo = int(ti)
					}
				} else {
					op.Exec(&ectx)
				}

				if nd := op.NDest; nd > 0 {
					at := issue + int64(op.Lat)
					pend.add(at, op.Dest[0], ectx.Dest[0])
					if nd > 1 {
						pend.add(at, op.Dest[1], ectx.Dest[1])
					}
				}
			}

			cycle++
			m.Stats.Instrs++
			issue++

			if redirectAfter >= 0 && issue > redirectAfter {
				idx = redirectTo
				redirectAfter = -1
				m.IC.Redirect()
				redirected = true
				haveChunk = false
				if obs && m.Events != nil {
					m.Events.Instant(telemetry.LaneFetch, "redirect", "jump", cycle,
						map[string]any{"to": m.Enc.Addr[redirectTo]})
				}
				break
			}
			idx++
		}
	}
	// Drain in-flight writes so final register state is observable.
	pend.drain(issue, regs)
	m.Stats.Cycles = cycle
	return nil
}

// observeFetchStall attributes a fetch stall of st cycles before the
// instruction at idx: the first fetch after a taken-jump redirect pays
// the jump penalty, every other one a sequential fetch stall.
func (m *Machine) observeFetchStall(cycle int64, idx int, st int64, redirected bool) {
	cause, name := telemetry.CauseFetch, "stall:fetch"
	if redirected {
		cause, name = telemetry.CauseJump, "stall:jump"
	}
	m.Profile.Add(idx, cause, st)
	if m.Events != nil {
		m.Events.Complete(telemetry.LaneFetch, name, "stall", cycle, st,
			map[string]any{"pc": m.Enc.Addr[idx]})
	}
}

// issueEventLimit is the number of instructions, from the start of a
// run, whose per-slot issue events reach the structured event trace;
// stall and memory-system events continue for the whole run.
const issueEventLimit = 10_000

// observeIssue serves the armed hooks for the instruction at idx as it
// issues, before any of its operations executes (so its per-slot issue
// events precede the data-cache events it causes): the execute cycle
// of the profile, the Trace line for the first TraceLimit instructions
// (default 200), and one issue event per primary slot for the first
// issueEventLimit instructions. The event's exec flag is the guard
// read from pre-instruction register state.
func (m *Machine) observeIssue(cycle, issue int64, idx int) {
	m.Profile.Add(idx, telemetry.CauseExecute, 1)
	in := &m.Code.Instrs[idx]
	if m.Trace != nil {
		limit := m.TraceLimit
		if limit == 0 {
			limit = 200
		}
		if issue < limit {
			m.trace(cycle, issue, idx, in)
		}
	}
	if m.Events == nil || issue >= issueEventLimit {
		return
	}
	for s := 0; s < 5; s++ {
		so := in.Slots[s]
		if so.Op == nil || so.Second {
			continue
		}
		info := so.Op.Info()
		g := m.regs.Read(m.RegMap.Reg(so.Op.Guard))&1 == 1
		if info.GuardInverted {
			g = !g
		}
		m.Events.Complete(s+1, info.Name, "issue", cycle, 1,
			map[string]any{"pc": m.Enc.Addr[idx], "exec": g})
	}
}

// BlockCacheStats returns the translation-cache counters of the last
// (or in-progress) run; zero before the first run on this machine.
func (m *Machine) BlockCacheStats() blockcache.Stats {
	if m.bc == nil {
		return blockcache.Stats{}
	}
	return m.bc.Stats
}
