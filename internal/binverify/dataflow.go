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
// Both states are dense over the register file, so a transfer or join
// is a fixed-size array pass and a copy is a value copy.
type dfState struct {
	pend  [isa.NumRegs]int32 // instructions until the in-flight write commits (0: none)
	def   regSet             // registers defined on every path, when defOn
	defOn bool               // the uninit analysis runs
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
	if s.defOn {
		for w := range s.def {
			if d := s.def[w] & o.def[w]; d != s.def[w] {
				s.def[w] = d
				changed = true
			}
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

// transfer computes into out the state at the next node's entry from
// the state at node i's entry, emitting diagnostics when report is set.
// Reads observe the entry state (operands are gathered before any write
// of the same instruction commits).
func (v *verifier) transfer(i int, in, out *dfState, report bool) {
	if report {
		read := func(op *vop, r isa.Reg) {
			if r.Hardwired() {
				return
			}
			if p := in.pend[r]; p > 0 {
				v.diag(i, op.slot, op.mn(), CheckLatency, Error,
					"reads %s %d instruction(s) before its in-flight write commits", r, p)
			}
			if in.defOn && !in.def.has(r) {
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
		}
	}

	*out = *in
	for r, p := range &out.pend {
		if p > 0 {
			out.pend[r] = p - 1
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
			// The earlier write commits at i+pend, this one at i+lat: the
			// earlier one landing at the same cycle or later inverts the
			// write order the schedule promised.
			if report && int(in.pend[d]) >= lat {
				v.diag(i, op.slot, op.mn(), CheckWAW, Error,
					"writes %s while an earlier write is still in flight and commits no earlier (WAW order violation)", d)
			}
			out.pend[d] = int32(max(lat-1, 0))
			// A guarded (if-converted) write still defines the register for
			// the may-uninit analysis: flagging it would drown real
			// never-written-on-some-path reads in false positives.
			out.def.add(d)
		}
	}
}

// dataflow runs the worklist fixpoint over the CFG, then a final
// deterministic reporting pass in instruction order.
func (v *verifier) dataflow() {
	n := len(v.dec)
	entry := &dfState{defOn: v.uninitOn}
	if v.uninitOn {
		entry.def = v.entryDefined
		entry.def.add(isa.R0)
		entry.def.add(isa.R1)
	}

	states := make([]*dfState, n)
	states[0] = entry
	work := []int{0}
	queued := make([]bool, n)
	queued[0] = true
	var out dfState
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		queued[i] = false
		v.transfer(i, states[i], &out, false)
		for _, s := range v.succ[i] {
			if s >= n {
				continue // exit
			}
			changed := false
			if states[s] == nil {
				st := out
				states[s] = &st
				changed = true
			} else {
				changed = states[s].mergeFrom(&out)
			}
			if changed && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}

	for i := 0; i < n; i++ {
		if states[i] != nil {
			v.transfer(i, states[i], &out, true)
		}
	}
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
