package binverify

import "tm3270/internal/isa"

// The range fixpoint runs on the latency dataflow's chain worklist
// (chainFixpoint): forward over the CFG, one stored state per chain
// leader, joining at leaders (interval hull, intersection of known
// registers). A chain visit copies the leader's state once and steps it
// in place across the chain, so joins, widening and clamps happen only
// at leaders; readers of per-instruction states replay the chains from
// the leader states (walkRanges, rangeAt). Termination comes from
// widening at loop headers, which are always leaders: after a few joins
// a still-growing register drops to top — or, on the second pass, to
// the loop's bounded-widening clamp when the register is a proven
// linear induction variable (see boundedWidenings).
//
// Writes are modeled as committing immediately. The exposed pipeline
// actually commits a latency-L write L instructions later, but a read
// observing the pre-commit value is precisely a CheckLatency error the
// structural layer already reports: on latency-clean binaries the
// immediate-commit abstraction is exact, and on broken ones the range
// findings are moot alongside the latency errors.

const (
	widenAfterJoins    = 2       // per-header joins before widening kicks in
	widenSafetyValve   = 32      // widen at any leader after this many joins
	maxRangeIterations = 1 << 16 // instruction visits per range pass (verifier.rangeCap)
)

// entryRangeState seeds node 0: r0/r1 plus the declared entry values.
func (v *verifier) entryRangeState() *rangeState {
	st := &rangeState{}
	if v.opts != nil {
		for r, val := range v.opts.EntryValues {
			if !r.Hardwired() && r.Valid() {
				st.set(r, ivConst(val))
			}
		}
	}
	return st
}

// guardTruth decides whether the op executes: known=false when the
// guard value is not statically determined. Hardwired guards are
// handled by neverExec before this is consulted.
func guardTruth(op *vop, st *rangeState) (executes, known bool) {
	iv, ok := st.get(op.guard)
	if !ok || !iv.singleton() {
		return false, false
	}
	bit := uint32(iv.lo) & 1
	return (bit == 1) != op.info.GuardInverted, true
}

// rangeWrite is one operation's pending effect on its destination.
type rangeWrite struct {
	r    isa.Reg
	iv   interval
	kind writeKind
}

type writeKind uint8

const (
	writeTop    writeKind = iota // the result is unknown: drop to top
	writeStrong                  // the op executes: replace
	writeWeak                    // the op may execute: join with the old value
)

// stepRanges advances st across node i, in place. Every operation reads
// the state before the instruction (operands are gathered before any
// write of the same instruction commits); the writes wait in a pending
// list and are applied in op order, so a weak update joins with what an
// earlier op of the same instruction wrote.
func (v *verifier) stepRanges(i int, st *rangeState) {
	var buf [10]rangeWrite // five slots, at most two destinations each
	pend := buf[:0]
	for k := range v.ops[i] {
		op := &v.ops[i][k]
		if neverExec(op) {
			continue
		}
		exec, guardKnown := true, true
		if !op.guard.Hardwired() {
			exec, guardKnown = guardTruth(op, st)
		}
		if guardKnown && !exec {
			continue // provably skipped: no write
		}
		if len(op.dests) == 0 {
			continue
		}
		if len(op.dests) > 1 {
			// Two-slot results are outside the domain.
			for _, d := range op.dests {
				pend = append(pend, rangeWrite{r: d, kind: writeTop})
			}
			continue
		}
		d := op.dests[0]
		if d.Hardwired() {
			continue
		}
		res, ok := rangeResult(op, st)
		switch {
		case !ok:
			pend = append(pend, rangeWrite{r: d, kind: writeTop})
		case guardKnown:
			pend = append(pend, rangeWrite{d, res, writeStrong})
		default:
			pend = append(pend, rangeWrite{d, res, writeWeak})
		}
	}
	for _, w := range pend {
		switch w.kind {
		case writeTop:
			st.del(w.r)
		case writeStrong:
			st.set(w.r, w.iv)
		case writeWeak:
			// The write may or may not happen: join with the old value.
			if old, had := st.lookup(w.r); had {
				st.set(w.r, hull(old, w.iv))
			}
		}
	}
}

// regChange is one entry of a merge's change log: a register whose
// interval the merge dropped or widened, and its interval before.
type regChange struct {
	r  isa.Reg
	iv interval
}

// mergeRanges joins src into dst (hull of common registers, drop the
// rest), appending to log the prior interval of every register it
// changes.
func mergeRanges(dst, src *rangeState, log []regChange) []regChange {
	dst.each(func(r isa.Reg, iv interval) {
		siv, ok := src.get(r)
		if !ok {
			log = append(log, regChange{r, iv})
			dst.del(r)
			return
		}
		if h := hull(iv, siv); h != iv {
			log = append(log, regChange{r, iv})
			dst.iv[r] = h
		}
	})
	return log
}

// rangeFixpoint runs the interval fixpoint over the chains (see
// chainFixpoint). clamps, when non-nil, maps loop headers to
// bounded-widening targets per register (second pass). Leader states
// live in one slab that both passes reuse; a merge logs what it
// changes, so widening and the change test touch only those registers.
//
// The pass stops after v.rangeCap instruction visits. States cut short
// are not a fixpoint and would back unsound proofs, so when work
// remains every leader falls back to top and cycleBound says so in a
// note.
func (v *verifier) rangeFixpoint(clamps map[int]*rangeState) {
	nc := len(v.leaders)
	isHeader := make([]bool, nc)
	for _, l := range v.loops {
		if !l.irreducible {
			isHeader[v.chainOf[l.header]] = true
		}
	}

	if v.ranges == nil {
		v.ranges, v.slab = make([]*rangeState, nc), make([]rangeState, nc)
	}
	clear(v.ranges)
	v.slab[0] = *v.entryRangeState()
	v.ranges[0] = &v.slab[0]
	joins := make([]int, nc)
	var log []regChange
	visits := 0
	step := func(i int, st *rangeState) bool {
		if visits == v.rangeCap {
			return false
		}
		visits++
		v.stepRanges(i, st)
		return true
	}
	join := func(dst, src *rangeState, s int) bool {
		if log = mergeRanges(dst, src, log[:0]); len(log) == 0 {
			return false
		}
		sc := v.chainOf[s]
		joins[sc]++
		if isHeader[sc] && joins[sc] > widenAfterJoins || joins[sc] > widenSafetyValve {
			return widen(dst, log, clamps[s])
		}
		return true
	}
	if !chainFixpoint(v, v.ranges, v.slab, step, join) {
		clear(v.ranges)
		v.rangesCapped = true
	}
}

// walkRanges calls fn with every reachable node's range state (see
// walkChains); the state is nil (top) everywhere after a capped pass.
func (v *verifier) walkRanges(fn func(i int, st *rangeState) bool) {
	walkChains(v, v.ranges, v.stepRanges, fn)
}

// rangeAt replays node i's entry state from its chain's leader into buf
// and returns it; nil means top.
func (v *verifier) rangeAt(i int, buf *rangeState) *rangeState {
	c := v.chainOf[i]
	if c < 0 || v.ranges[c] == nil {
		return nil
	}
	*buf = *v.ranges[c]
	for j := v.leaders[c]; j != i; j = int(v.next[j]) {
		v.stepRanges(j, buf)
	}
	return buf
}

// widen drops every register that grew in the last join (the ones the
// merge logged and kept) to top — or to its clamp window when the
// register has one. Applying the clamp even when the joined interval
// exceeds it is sound: the window is proven outside the fixpoint (at
// most `bound` header entries, one constant step between consecutive
// ones — see boundedWidenings), while the back-edge join necessarily
// carries one increment past the final header entry because the domain
// cannot refine on the exit branch.
//
// It reports whether cur now differs from its state before the merge:
// widening a clamped register can restore the prior interval exactly,
// and only a real change re-queues the node.
func widen(cur *rangeState, log []regChange, clamp *rangeState) bool {
	changed := false
	for _, c := range log {
		if _, kept := cur.lookup(c.r); !kept {
			changed = true // dropped by the merge
			continue
		}
		w, clamped := clamp.lookup(c.r)
		if clamped {
			cur.set(c.r, w)
		} else {
			cur.del(c.r)
		}
		changed = changed || !clamped || w != c.iv
	}
	return changed
}

// memAddress returns the access address interval of a load/store, or
// ok=false when the addressing operands are unknown.
func memAddress(op *vop, st *rangeState) (interval, bool) {
	if len(op.srcs) == 0 {
		return interval{}, false
	}
	base, ok := st.get(op.srcs[0])
	if !ok || !base.valid() {
		return interval{}, false
	}
	addr := base
	switch {
	case op.info.HasImm:
		// Displacement forms: address = src1 + signed immediate. (For
		// stores src2 is the value, not part of the address.)
		addr = addr.add(ivSext(op.imm))
	case op.info.NSrc >= 2 && op.oc != isa.OpLDFRAC8:
		// Indexed forms: address = src1 + src2. ld_frac8 addresses with
		// src1 alone (src2 is the interpolation fraction).
		idx, ok := st.get(op.srcs[1])
		if !ok || !idx.valid() {
			return interval{}, false
		}
		addr = addr.add(idx)
	}
	if !addr.valid() {
		return interval{}, false
	}
	// Normalize the representatives into the unsigned window: a pattern
	// is an address, so an all-negative interval simply names the high
	// half of the address space.
	for addr.lo >= 1<<32 {
		addr.lo -= 1 << 32
		addr.hi -= 1 << 32
	}
	for addr.hi < 0 {
		addr.lo += 1 << 32
		addr.hi += 1 << 32
	}
	if !addr.unsignedOK() {
		return interval{}, false // straddles a wrap boundary
	}
	return addr, true
}

// checkRanges walks the reachable nodes with the final range states and
// reports dead guards and provably out-of-range memory accesses.
func (v *verifier) checkRanges() {
	v.walkRanges(func(i int, st *rangeState) bool {
		if st == nil {
			return false // top everywhere: nothing to prove
		}
		for k := range v.ops[i] {
			if op := &v.ops[i][k]; !neverExec(op) {
				v.checkOpRanges(i, op, st)
			}
		}
		return true
	})
}

func (v *verifier) checkOpRanges(i int, op *vop, st *rangeState) {
	exec, guardKnown := true, true
	if !op.guard.Hardwired() {
		exec, guardKnown = guardTruth(op, st)
		if guardKnown && !exec {
			what := "operation"
			if op.info.IsJump {
				what = "branch"
			}
			v.diag(i, op.slot, op.mn(), CheckDeadGuard, Warn,
				"guard %s is provably false here: the %s never executes (dead code)",
				op.guard, what)
			return
		}
	}

	if len(v.opts.MemMap) == 0 || (!op.info.IsLoad && !op.info.IsStore) {
		return
	}
	addr, ok := memAddress(op, st)
	if !ok {
		return
	}
	size := int64(op.info.MemBytes)
	if size < 1 {
		size = 1 // allocd touches one line; one byte is enough to range-check
	}
	lo, hi := addr.lo, addr.hi+size-1
	for _, reg := range v.opts.MemMap {
		if lo < int64(reg.Hi) && hi >= int64(reg.Lo) {
			return // may fall inside a declared region
		}
	}
	sev := Error
	if !guardKnown {
		// A guard the analysis cannot decide might never be true; the
		// access is still provably wrong whenever it does execute.
		sev = Warn
	}
	v.diag(i, op.slot, op.mn(), CheckMemRange, sev,
		"address in [%#x,%#x] is provably outside every declared memory region", lo, hi)
}
