package binverify

import "tm3270/internal/isa"

// The range fixpoint mirrors the latency dataflow: forward over the
// instruction CFG, joining at merge points (interval hull, intersection
// of known registers). Termination comes from widening at loop headers:
// after a few joins a still-growing register drops to top — or, on the
// second pass, to the loop's bounded-widening clamp when the register
// is a proven linear induction variable (see boundedWidenings).
//
// Writes are modeled as committing immediately. The exposed pipeline
// actually commits a latency-L write L instructions later, but a read
// observing the pre-commit value is precisely a CheckLatency error the
// structural layer already reports: on latency-clean binaries the
// immediate-commit abstraction is exact, and on broken ones the range
// findings are moot alongside the latency errors.

const (
	widenAfterJoins    = 2       // per-header joins before widening kicks in
	widenSafetyValve   = 32      // widen anywhere after this many joins
	maxRangeIterations = 1 << 16 // worklist cap per range pass (verifier.rangeCap)
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

// transferRanges computes into out the next node's entry state from
// node i's. When sink is non-nil, per-op results are reported to it (the
// checking pass); the fixpoint passes nil.
func (v *verifier) transferRanges(i int, in, out *rangeState, sink func(op *vop, st *rangeState)) {
	*out = *in
	for k := range v.ops[i] {
		op := &v.ops[i][k]
		if neverExec(op) {
			continue
		}
		if sink != nil {
			sink(op, in)
		}
		exec, guardKnown := true, true
		if !op.guard.Hardwired() {
			exec, guardKnown = guardTruth(op, in)
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
				out.del(d)
			}
			continue
		}
		d := op.dests[0]
		if d.Hardwired() {
			continue
		}
		res, ok := rangeResult(op, in)
		switch {
		case !ok:
			out.del(d)
		case guardKnown:
			out.set(d, res) // strong update
		default:
			// The write may or may not happen: join with the old value.
			if old, had := out.lookup(d); had {
				out.set(d, hull(old, res))
			}
		}
	}
}

// mergeRanges joins src into dst (hull of common registers, drop the
// rest), reporting whether dst changed.
func mergeRanges(dst, src *rangeState) bool {
	changed := false
	dst.each(func(r isa.Reg, iv interval) {
		siv, ok := src.get(r)
		if !ok {
			dst.del(r)
			changed = true
			return
		}
		if h := hull(iv, siv); h != iv {
			dst.iv[r] = h
			changed = true
		}
	})
	return changed
}

// rangeFixpoint runs the interval worklist. clamps, when non-nil, maps
// loop headers to bounded-widening targets per register (second pass).
// Only a node's first visit allocates: transfers and merges reuse two
// scratch states.
//
// The worklist stops after v.rangeCap iterations. States cut short are
// not a fixpoint and would back unsound proofs, so when work remains
// every node falls back to top and cycleBound says so in a note.
func (v *verifier) rangeFixpoint(clamps map[int]*rangeState) {
	n := len(v.dec)
	isHeader := make([]bool, n)
	for _, l := range v.loops {
		if !l.irreducible {
			isHeader[l.header] = true
		}
	}

	states := make([]*rangeState, n)
	states[0] = v.entryRangeState()
	joins := make([]int, n)
	work := []int{0}
	queued := make([]bool, n)
	queued[0] = true
	var out, pre rangeState
	for iter := 0; len(work) > 0 && iter < v.rangeCap; iter++ {
		i := work[0]
		work = work[1:]
		queued[i] = false
		v.transferRanges(i, states[i], &out, nil)
		for _, s := range v.succ[i] {
			if s >= n {
				continue
			}
			changed := false
			if states[s] == nil {
				st := out
				states[s] = &st
				changed = true
			} else {
				pre = *states[s]
				if mergeRanges(states[s], &out) {
					joins[s]++
					if isHeader[s] && joins[s] > widenAfterJoins ||
						joins[s] > widenSafetyValve {
						widen(states[s], &pre, clamps[s])
					}
					// Widening a clamped register can restore the
					// pre-merge state exactly; only a real change
					// re-queues the successor.
					changed = *states[s] != pre
				}
			}
			if changed && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	if len(work) > 0 {
		clear(states)
		v.rangesCapped = true
	}
	v.ranges = states
}

// widen drops every register that grew in the last join to top — or to
// its clamp window when the register has one. Applying the clamp even
// when the joined interval exceeds it is sound: the window is proven
// outside the fixpoint (at most `bound` header entries, one constant
// step between consecutive ones — see boundedWidenings), while the
// back-edge join necessarily carries one increment past the final
// header entry because the domain cannot refine on the exit branch.
func widen(cur, pre, clamp *rangeState) {
	cur.each(func(r isa.Reg, iv interval) {
		if old, had := pre.lookup(r); had && old == iv {
			return // stable: no widening needed
		}
		if c, ok := clamp.lookup(r); ok {
			cur.set(r, c)
			return
		}
		cur.del(r)
	})
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
	n := len(v.dec)
	var out rangeState
	for i := 0; i < n; i++ {
		if !v.reach[i] || v.ranges[i] == nil {
			continue
		}
		idx := i
		v.transferRanges(i, v.ranges[i], &out, func(op *vop, st *rangeState) {
			v.checkOpRanges(idx, op, st)
		})
	}
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
