package binverify

import (
	"math/bits"

	"tm3270/internal/isa"
	"tm3270/internal/sched"
)

// The latency analysis tracks, per register, how many instructions
// remain until an in-flight write commits. The pipeline commits a write
// of latency L issued at index j before the instruction at index j+L
// executes, so at the entry of node j+k the register has L-k
// instructions pending; any read while pend > 0 observes the stale
// value. The analysis is a forward may-analysis: the join over
// predecessors takes the per-register maximum, so a hazard on any
// incoming path is reported. The definedness analysis is the dual
// must-analysis (join = intersection): a register is defined only if
// every path to the node wrote it unconditionally.
//
// Like the range fixpoint, the pass runs over the straight-line chains
// (see buildChains) and stores a state only at each chain's leader;
// reporting replays each chain once from its leader state. Both
// lattices are finite and unwidened, so the least fixpoint, and with
// it every report, does not depend on the order the chains are visited.
type dfState struct {
	pend [isa.NumRegs]int32 // instructions until the in-flight write commits (0: none)
	def  regSet             // registers defined on every path (read only when v.uninitOn)
}

// mergeFrom joins o into s, reporting whether s changed.
func (s *dfState) mergeFrom(o *dfState) bool {
	changed := false
	for r, p := range &o.pend {
		if p > s.pend[r] {
			s.pend[r] = p
			changed = true
		}
	}
	for w := range s.def {
		if d := s.def[w] & o.def[w]; d != s.def[w] {
			s.def[w] = d
			changed = true
		}
	}
	return changed
}

// regSet is a set of registers, one bit per register-file entry.
type regSet [isa.NumRegs / 64]uint64

func (s *regSet) add(r isa.Reg)      { s[r/64] |= 1 << (r % 64) }
func (s *regSet) remove(r isa.Reg)   { s[r/64] &^= 1 << (r % 64) }
func (s *regSet) has(r isa.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// each calls fn for every member in ascending register order. fn may
// remove the register it is given.
func (s *regSet) each(fn func(isa.Reg)) {
	for w, word := range *s {
		for word != 0 {
			fn(isa.Reg(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// neverExec reports whether the operation's hardwired guard statically
// disables it (r0 reads 0, r1 reads 1; the guard check is on the low
// bit). Such an operation is dead: it neither reads nor writes.
func neverExec(op *vop) bool {
	if op.info.GuardInverted {
		return op.guard == isa.R1
	}
	return op.guard == isa.R0
}

// checkLatency reports node i's reads of registers whose write is
// still in flight or that may be uninitialized, and its writes that
// would commit no later than an earlier in-flight write, all against
// st, the state at the node's entry (operands are gathered before any
// write of the same instruction commits).
func (v *verifier) checkLatency(i int, st *dfState) {
	read := func(op *vop, r isa.Reg) {
		if r.Hardwired() {
			return
		}
		if p := st.pend[r]; p > 0 {
			v.diag(i, op.slot, op.mn(), CheckLatency, Error,
				"reads %s %d instruction(s) before its in-flight write commits", r, p)
		}
		if v.uninitOn && !st.def.has(r) {
			v.diag(i, op.slot, op.mn(), CheckUninit, Warn,
				"reads %s, which may be uninitialized on some path to this instruction", r)
		}
	}
	for k := range v.ops[i] {
		op := &v.ops[i][k]
		if neverExec(op) {
			continue
		}
		read(op, op.guard)
		for _, r := range op.srcs {
			read(op, r)
		}
		lat := v.t.OpLatency(op.oc)
		for _, d := range op.dests {
			// The earlier write commits at i+pend, this one at i+lat: the
			// earlier one landing at the same cycle or later inverts the
			// write order the schedule promised.
			if !d.Hardwired() && int(st.pend[d]) >= lat {
				v.diag(i, op.slot, op.mn(), CheckWAW, Error,
					"writes %s while an earlier write is still in flight and commits no earlier (WAW order violation)", d)
			}
		}
	}
}

// stepLatency advances st across node i, in place.
func (v *verifier) stepLatency(i int, st *dfState) {
	for r, p := range &st.pend {
		if p > 0 {
			st.pend[r] = p - 1
		}
	}
	for k := range v.ops[i] {
		op := &v.ops[i][k]
		if neverExec(op) {
			continue
		}
		lat := v.t.OpLatency(op.oc)
		for _, d := range op.dests {
			if d.Hardwired() {
				continue
			}
			st.pend[d] = int32(max(lat-1, 0))
			// A guarded (if-converted) write still defines the register for
			// the may-uninit analysis: flagging it would drown real
			// never-written-on-some-path reads in false positives.
			st.def.add(d)
		}
	}
}

// dataflow runs the latency and definedness fixpoint over the chains,
// then reports by replaying every chain from its leader state. It
// returns the leader states.
func (v *verifier) dataflow() []*dfState {
	nc := len(v.leaders)
	states, slab := make([]*dfState, nc), make([]dfState, nc)
	slab[0].def = v.entryDefined
	slab[0].def.add(isa.R0)
	slab[0].def.add(isa.R1)
	states[0] = &slab[0]
	chainFixpoint(v, states, slab,
		func(i int, st *dfState) bool { v.stepLatency(i, st); return true },
		func(dst, src *dfState, _ int) bool { return dst.mergeFrom(src) })
	walkChains(v, states, v.stepLatency, func(i int, st *dfState) bool {
		v.checkLatency(i, st)
		return true
	})
	return states
}

// checkWritePorts counts, per straight-line issue cycle, how many
// register results commit together, and flags cycles that need more
// write ports than the register file has (sched.WBPorts). It also flags
// two operations of one instruction writing the same register — an
// intra-instruction WAW the dataflow (which tracks one pending write
// per register) would mask.
func (v *verifier) checkWritePorts() {
	n := len(v.dec)
	counts := make([]int, n)   // commits per cycle, grown to the latest commit
	var seen [isa.NumRegs]int8 // dest -> slot of the first writer (0: none)
	for i := 0; i < n; i++ {
		seen = [isa.NumRegs]int8{}
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if neverExec(op) {
				continue
			}
			lat := v.t.OpLatency(op.oc)
			for _, d := range op.dests {
				if d.Hardwired() {
					continue
				}
				if first := seen[d]; first > 0 {
					v.diag(i, op.slot, op.mn(), CheckWAW, Error,
						"writes %s already written by the operation in slot %d of the same instruction", d, first)
				} else {
					seen[d] = int8(op.slot)
				}
				for len(counts) <= i+lat {
					counts = append(counts, 0)
				}
				counts[i+lat]++
			}
		}
	}
	for c := 1; c < len(counts); c++ {
		if counts[c] <= sched.WBPorts {
			continue
		}
		anchor := c
		if anchor >= n {
			anchor = n - 1
		}
		v.diag(anchor, 0, "", CheckWBPorts, Error,
			"%d register writebacks commit in the same cycle; the register file has %d write ports",
			counts[c], sched.WBPorts)
	}
}
