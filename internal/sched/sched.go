// Package sched implements the VLIW scheduler: it packs the guarded
// operations of a kernel into five-slot VLIW instructions for a specific
// target configuration, honoring issue-slot constraints, functional-unit
// placement, exposed operation latencies, the target's jump delay slots
// and its load-issue restrictions.
//
// The TM3270 pipeline has no interlocks apart from memory stalls: the
// schedule itself is the correctness guarantee, exactly as for the
// production TriMedia compiler that this package stands in for.
// "Re-compiling" a kernel for the TM3260 versus the TM3270 is a call to
// Schedule with a different target.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prog"
)

// WBPorts is the number of register-file write ports: at most this many
// results may commit in one cycle, and the scheduler spreads commits
// accordingly.
const WBPorts = 5

// SlotOp is the occupant of one issue slot.
type SlotOp struct {
	Op *prog.Op // nil when the slot is empty
	// Second marks the second slot of a two-slot operation; Op then
	// points at the same operation as the preceding slot.
	Second bool
}

// Instr is one VLIW instruction. Slots[0] is issue slot 1.
type Instr struct {
	Slots [5]SlotOp
}

// Empty reports whether the instruction carries no operations.
func (in *Instr) Empty() bool {
	for _, s := range in.Slots {
		if s.Op != nil {
			return false
		}
	}
	return true
}

// OpCount returns the number of operations in the instruction (a
// two-slot operation counts once).
func (in *Instr) OpCount() int {
	n := 0
	for _, s := range in.Slots {
		if s.Op != nil && !s.Second {
			n++
		}
	}
	return n
}

// Code is a scheduled kernel.
type Code struct {
	Name   string
	Target config.Target
	Instrs []Instr
	// Labels maps branch labels to instruction indices.
	Labels map[string]int
	// BlockStart[i] is the first instruction index of source block i.
	BlockStart []int
	// LoopBounds carries the source program's loop-bound annotations
	// (label -> max header entries) through to the binary verifier.
	LoopBounds map[string]int

	// SrcOps is the number of source operations scheduled (excluding
	// padding); PadInstrs counts fully-empty padding instructions.
	SrcOps    int
	PadInstrs int
}

// OpsPerInstr returns the achieved operation density (OPI upper bound).
func (c *Code) OpsPerInstr() float64 {
	if len(c.Instrs) == 0 {
		return 0
	}
	return float64(c.SrcOps) / float64(len(c.Instrs))
}

// Schedule compiles p for the target. It returns an error if the kernel
// uses operations the target does not implement.
func Schedule(p *prog.Program, t config.Target) (*Code, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sched %s: %w", p.Name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	c := &Code{Name: p.Name, Target: t, Labels: make(map[string]int), LoopBounds: p.LoopBounds}
	s := &scratch{lastDef: make([]int, p.NumVRegs), uses: make([][]int, p.NumVRegs)}
	for _, b := range p.Blocks {
		start := len(c.Instrs)
		c.BlockStart = append(c.BlockStart, start)
		if b.Label != "" {
			c.Labels[b.Label] = start
		}
		if err := s.scheduleBlock(c, b, &t); err != nil {
			return nil, fmt.Errorf("sched %s: block %q: %w", p.Name, b.Label, err)
		}
	}
	for i := range c.Instrs {
		if c.Instrs[i].Empty() {
			c.PadInstrs++
		}
	}
	return c, nil
}

// slotsFor returns the issue slots op may use on the target (the first
// slot of the pair for two-slot operations).
func slotsFor(op *prog.Op, t *config.Target) isa.SlotMask {
	info := op.Info()
	if info.Class == isa.UnitLoad {
		return t.LoadSlots
	}
	return isa.DefaultSlots(info.Class)
}

// edge is one scheduling dependence: to must issue at least weight
// cycles after the op whose successor chain holds the edge. The fields
// are int32 because a block's alias edges grow with loads × stores.
type edge struct {
	to, weight int32
	next       int32 // next edge of the same predecessor, or -1
}

// opState is the scheduler's view of one operation of the block.
type opState struct {
	lat      int
	prio     int   // longest latency-weighted path to any sink
	succ     int32 // first out-edge in scratch.edges, or -1
	npred    int   // predecessors not yet issued
	earliest int   // first cycle the issued predecessors' latencies allow
	issue    int   // issue cycle, or -1
	next     int   // next op in the same ready bucket, or -1
}

// scratch is the list scheduler's working memory, allocated once per
// Schedule call and reused by every block.
type scratch struct {
	// Dependence construction, indexed by virtual register: the last
	// definition (-1 for none) and the reads since it.
	lastDef       []int
	uses          [][]int
	loads, stores []int
	edges         []edge

	ops []opState
	// bucket[c] heads the chain of ops whose last predecessor has
	// issued and whose latencies allow issue from cycle c.
	bucket []int
	// ready holds the ops that may issue this cycle, highest priority
	// first and then in program order.
	ready []int
	// wb counts register results committing per cycle: the register
	// file has WBPorts write ports, so an op whose results would land on
	// a full cycle must issue later. Results of different latencies
	// issued on different cycles can collide on the same commit cycle,
	// which the slot constraints alone do not prevent. (The block drain
	// rule keeps every commit inside the block, so per-block accounting
	// is exact.)
	wb []int
}

// becomesReady files op i in the bucket of cycle c.
func (s *scratch) becomesReady(i, c int) {
	for len(s.bucket) <= c {
		s.bucket = append(s.bucket, -1)
	}
	s.ops[i].next = s.bucket[c]
	s.bucket[c] = i
}

func (s *scratch) scheduleBlock(c *Code, b *prog.Block, t *config.Target) error {
	body := b.Body()
	jump := b.Jump()

	for i := range body {
		if !t.Supports(body[i].Opcode) {
			return fmt.Errorf("operation %s not implemented by target %s",
				body[i].Info().Name, t.Name)
		}
	}

	if cap(s.ops) < len(body) {
		s.ops = make([]opState, len(body))
	}
	ops := s.ops[:len(body)]
	for i := range ops {
		ops[i] = opState{lat: t.OpLatency(body[i].Opcode), succ: -1, issue: -1}
	}
	s.buildDeps(body)

	// Priority: longest path to any sink, including own latency.
	for i := len(ops) - 1; i >= 0; i-- {
		ops[i].prio = ops[i].lat
		for k := ops[i].succ; k >= 0; k = s.edges[k].next {
			e := &s.edges[k]
			ops[i].prio = max(ops[i].prio, int(e.weight)+ops[e.to].prio)
		}
	}

	base := len(c.Instrs)
	ensure := func(n int) {
		for len(c.Instrs) < base+n {
			c.Instrs = append(c.Instrs, Instr{})
		}
	}

	// Drain: every result must be committed by the end of the block so
	// that successor blocks (on either path) observe it. The exposed
	// pipeline has no interlocks; this is the compiler's contract.
	drain := 0

	s.bucket, s.ready, s.wb = s.bucket[:0], s.ready[:0], s.wb[:0]
	for i := range ops {
		if ops[i].npred == 0 {
			s.becomesReady(i, 0)
		}
	}
	remaining := len(body)
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > 64*len(body)+1024 {
			return fmt.Errorf("scheduler did not converge")
		}
		ensure(cycle + 1)
		if cycle < len(s.bucket) {
			for i := s.bucket[cycle]; i >= 0; i = ops[i].next {
				j, _ := slices.BinarySearchFunc(s.ready, i, func(x, y int) int {
					return cmp.Or(cmp.Compare(ops[y].prio, ops[x].prio), cmp.Compare(x, y))
				})
				s.ready = slices.Insert(s.ready, j, i)
			}
		}
		in := &c.Instrs[base+cycle]
		waiting := s.ready[:0]
		for _, i := range s.ready {
			nd := body[i].Info().NDest
			w := cycle + ops[i].lat
			for len(s.wb) <= w {
				s.wb = append(s.wb, 0)
			}
			if (nd > 0 && s.wb[w]+nd > WBPorts) || !place(in, &body[i], t) {
				waiting = append(waiting, i)
				continue
			}
			ops[i].issue = cycle
			remaining--
			s.wb[w] += nd
			drain = max(drain, w)
			// A successor joins the ready set at the start of a later
			// cycle, so even a weight-0 (WAR) successor issues after
			// this cycle.
			for k := ops[i].succ; k >= 0; k = s.edges[k].next {
				e := &s.edges[k]
				o := &ops[e.to]
				o.earliest = max(o.earliest, cycle+int(e.weight))
				if o.npred--; o.npred == 0 {
					s.becomesReady(int(e.to), max(o.earliest, cycle+1))
				}
			}
		}
		s.ready = waiting
	}

	// The body's last op issued in its last instruction.
	lastIssue := len(c.Instrs) - base - 1
	blockLen := max(lastIssue+1, drain)

	if jump != nil {
		if !t.Supports(jump.Opcode) {
			return fmt.Errorf("jump op %s unsupported", jump.Info().Name)
		}
		d := t.JumpDelaySlots
		// Guard readiness (RAW on the guard register). WAW edges make
		// every definition commit after the one before, so the block's
		// last definition, which buildDeps leaves in lastDef, is the
		// one to wait for.
		guardReady := 0
		if g := s.lastDef[jump.Guard]; g >= 0 {
			guardReady = ops[g].issue + ops[g].lat
		}
		jc := max(guardReady, lastIssue-d, drain-d-1)
		// Find a free branch-unit slot (2, 3 or 4) at or after jc.
		for {
			ensure(jc + 1)
			in := &c.Instrs[base+jc]
			if s := freeSlot(in, isa.DefaultSlots(isa.UnitBranch)); s >= 0 {
				in.Slots[s] = SlotOp{Op: jump}
				break
			}
			jc++
		}
		// The block ends exactly one instruction after the last delay
		// slot; jc was chosen so that this covers both the drain
		// requirement and every scheduled operation.
		blockLen = jc + d + 1
	}

	ensure(blockLen)
	c.Instrs = c.Instrs[:base+blockLen]
	c.SrcOps += len(b.Ops)
	return nil
}

// buildDeps constructs the dependence edges of a block body: it chains
// each edge to its predecessor's successors and counts it in the
// successor's npred. The latencies in s.ops must be set.
func (s *scratch) buildDeps(body []prog.Op) {
	for r := range s.lastDef {
		s.lastDef[r] = -1
		s.uses[r] = s.uses[r][:0]
	}
	s.edges, s.loads, s.stores = s.edges[:0], s.loads[:0], s.stores[:0]

	lat := func(i int) int { return s.ops[i].lat }
	add := func(succ, pred, weight int) {
		if succ == pred {
			return // self-edges (rejected by Validate) must never deadlock
		}
		s.edges = append(s.edges, edge{to: int32(succ), weight: int32(weight), next: s.ops[pred].succ})
		s.ops[pred].succ = int32(len(s.edges) - 1)
		s.ops[succ].npred++
	}

	for i := range body {
		op := &body[i]
		info := op.Info()

		reads := [5]prog.VReg{op.Guard, op.Src[0], op.Src[1], op.Src[2], op.Src[3]}
		for _, r := range reads[:1+info.NSrc] {
			if r.Pinned() {
				continue
			}
			if d := s.lastDef[r]; d >= 0 {
				add(i, d, lat(d)) // RAW
			}
			s.uses[r] = append(s.uses[r], i)
		}
		for _, d := range op.Dest[:info.NDest] {
			if pd := s.lastDef[d]; pd >= 0 {
				// WAW: later def must commit later
				add(i, pd, max(lat(pd)-lat(i)+1, 1))
			}
			for _, u := range s.uses[d] {
				if u != i {
					add(i, u, 0) // WAR: read at issue, write commits later
				}
			}
			// A guarded definition merges with the previous value, so it
			// also counts as a use for subsequent writers.
			s.lastDef[d] = i
			s.uses[d] = s.uses[d][:0]
			if op.Guard != prog.One {
				s.uses[d] = append(s.uses[d], i)
			}
		}

		switch {
		case info.IsLoad:
			for _, st := range s.stores {
				if mayAlias(op, &body[st]) {
					add(i, st, 1) // memory RAW
				}
			}
			s.loads = append(s.loads, i)
		case info.IsStore:
			for _, l := range s.loads {
				if mayAlias(op, &body[l]) {
					add(i, l, 0) // memory WAR
				}
			}
			for _, st := range s.stores {
				if mayAlias(op, &body[st]) {
					add(i, st, 1) // memory WAW
				}
			}
			s.stores = append(s.stores, i)
		}
	}
}

// mayAlias reports whether two memory operations may touch overlapping
// bytes. Operations in different non-zero MemGroups never alias; with
// the same base register and displacement addressing, disjoint static
// ranges never alias.
func mayAlias(a, b *prog.Op) bool {
	if a.MemGroup != 0 && b.MemGroup != 0 && a.MemGroup != b.MemGroup {
		return false
	}
	ai, bi := a.Info(), b.Info()
	// Displacement forms with a common base register.
	if ai.HasImm && bi.HasImm && a.Src[0] == b.Src[0] {
		alo, ahi := int64(int32(a.Imm)), int64(int32(a.Imm))+int64(ai.MemBytes)
		blo, bhi := int64(int32(b.Imm)), int64(int32(b.Imm))+int64(bi.MemBytes)
		return alo < bhi && blo < ahi
	}
	return true
}

// place tries to put op into the instruction, returning success.
func place(in *Instr, op *prog.Op, t *config.Target) bool {
	info := op.Info()
	if op.Opcode == isa.OpNOP {
		return true // NOPs occupy no slot
	}
	mask := slotsFor(op, t)
	if info.TwoSlot {
		for s := 1; s <= 4; s++ {
			if mask.Has(s) && in.Slots[s-1].Op == nil && in.Slots[s].Op == nil {
				in.Slots[s-1] = SlotOp{Op: op}
				in.Slots[s] = SlotOp{Op: op, Second: true}
				return true
			}
		}
		return false
	}
	if info.IsLoad && countLoads(in) >= t.MaxLoadsPerInstr {
		return false
	}
	if s := freeSlot(in, mask); s >= 0 {
		in.Slots[s] = SlotOp{Op: op}
		return true
	}
	return false
}

func countLoads(in *Instr) int {
	n := 0
	for _, s := range in.Slots {
		if s.Op != nil && !s.Second && s.Op.Info().IsLoad {
			n++
		}
	}
	return n
}

// freeSlot returns the zero-based index of the first free slot in the
// mask, or -1.
func freeSlot(in *Instr, mask isa.SlotMask) int {
	for s := 1; s <= 5; s++ {
		if mask.Has(s) && in.Slots[s-1].Op == nil {
			return s - 1
		}
	}
	return -1
}
