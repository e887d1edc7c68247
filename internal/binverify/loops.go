package binverify

import "tm3270/internal/isa"

// loop is one natural loop (back edges with the same header merged).
type loop struct {
	header int
	body   bitset // member nodes, header included
	backs  []int  // back-edge source nodes (jump redirect nodes)

	// Bound analysis results. bound == 0 means unknown: the loop has no
	// inferable trip count and no annotation.
	bound  int64
	source string // "inferred" or "annotation" when bound > 0

	// Induction facts feeding the bounded widening of the second range
	// pass (set only when the bound was inferred).
	indReg   isa.Reg
	indStep  int64
	indEntry interval

	irreducible bool // marks the synthetic "irreducible cycle" record

	// The join of the first-pass range states on the loop's entry edges
	// (see joinLoopEntries); entryKnown is false when it is top.
	entry      rangeState
	entryKnown bool

	// In-loop writes per register, from one scan of the body (see
	// scanWrites): how many operations write it, and the last of them.
	writes [isa.NumRegs]int
	writer [isa.NumRegs]*vop
}

// findLoops detects back edges (u -> h with h dominating u), builds the
// natural loop of each, merges loops sharing a header, and verifies
// reducibility: with the back edges removed the CFG must be acyclic,
// otherwise some cycle is not a natural loop and per-node execution
// counts (products of loop bounds) would be unsound.
func (v *verifier) findLoops() {
	n := len(v.dec)
	byHeader := map[int]*loop{}
	isBack := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		if !v.reach[u] {
			continue
		}
		for _, h := range v.succ[u] {
			if h >= n || !v.reach[h] || !v.dominates(h, u) {
				continue
			}
			isBack[[2]int{u, h}] = true
			l := byHeader[h]
			if l == nil {
				l = &loop{header: h, body: newBitset(n)}
				l.body.set(h)
				byHeader[h] = l
				v.loops = append(v.loops, l)
			}
			l.backs = append(l.backs, u)
			// Natural loop body: nodes that reach u without passing h.
			if !l.body.has(u) {
				l.body.set(u)
			}
			stack := []int{u}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range v.preds[x] {
					if v.reach[p] && !l.body.has(p) {
						l.body.set(p)
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// Reducibility: Kahn's toposort over the forward (non-back) edges of
	// the reachable subgraph. Leftover nodes form a cycle no back edge
	// explains.
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		if !v.reach[u] {
			continue
		}
		for _, s := range v.succ[u] {
			if s < n && v.reach[s] && !isBack[[2]int{u, s}] {
				indeg[s]++
			}
		}
	}
	queue := []int{}
	left := 0
	for i := 0; i < n; i++ {
		if v.reach[i] {
			left++
			if indeg[i] == 0 {
				queue = append(queue, i)
			}
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		left--
		for _, s := range v.succ[u] {
			if s < n && v.reach[s] && !isBack[[2]int{u, s}] {
				if indeg[s]--; indeg[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
	}
	if left > 0 {
		// Anchor the finding on the smallest leftover node.
		anchor := -1
		for i := 0; i < n && anchor < 0; i++ {
			if v.reach[i] && indeg[i] > 0 {
				anchor = i
			}
		}
		v.loops = append(v.loops, &loop{header: anchor, irreducible: true})
	}
}

// inferLoopBounds derives, for every natural loop, the maximum number
// of header entries per loop entry. Inference recognizes the canonical
// counted-loop shape: a single conditional back-edge jump whose guard
// is a comparison of a linear induction register (exactly one unguarded
// constant-step iaddi per iteration) against a loop-invariant limit.
// The trip count follows from the induction entry interval, the step
// and the limit interval, assuming conservatively that the comparison
// tests the pre-update value (the larger of the two possible counts).
// An explicit Options.LoopBounds annotation keyed by header PC covers
// everything inference cannot.
func (v *verifier) inferLoopBounds() {
	for _, l := range v.loops {
		if l.irreducible {
			continue
		}
		v.scanWrites(l)
		annotated, hasAnn := int64(0), false
		if v.opts != nil {
			if b, ok := v.opts.LoopBounds[v.dec[l.header].Addr]; ok && b > 0 {
				annotated, hasAnn = int64(b), true
			}
		}
		inferred, ok := v.inferBound(l)
		switch {
		case ok && hasAnn:
			// Inference is sound on its own; a tighter annotation is a
			// stronger promise from the kernel writer.
			l.bound, l.source = min(inferred, annotated), "inferred"
			if annotated < inferred {
				l.source = "annotation"
			}
		case ok:
			l.bound, l.source = inferred, "inferred"
		case hasAnn:
			l.bound, l.source = annotated, "annotation"
		}
	}
}

// inferBound attempts trip-count inference for one loop, filling the
// induction facts on success.
func (v *verifier) inferBound(l *loop) (int64, bool) {
	if len(l.backs) != 1 {
		return 0, false
	}
	back := l.backs[0]
	delay := v.t.JumpDelaySlots
	jidx := back - delay
	if jidx < 0 {
		return 0, false
	}
	var jumpOp *vop
	for k := range v.ops[jidx] {
		op := &v.ops[jidx][k]
		if op.info.IsJump {
			if jumpOp != nil {
				return 0, false
			}
			jumpOp = op
		}
	}
	if jumpOp == nil || neverExec(jumpOp) {
		return 0, false
	}
	// The redirect must belong to this jump and target this header, and
	// the jump must be conditional: an always-taken back edge never
	// exits through its own test.
	if v.dec[l.header].Addr != jumpOp.target || jumpOp.guard.Hardwired() {
		return 0, false
	}

	// The value the jump tests is the unique unguarded in-loop
	// definition of its guard register reaching the jump node.
	cmpIdx, cmpOp, ok := v.uniqueLoopDef(jumpOp.guard, jidx, l)
	if !ok {
		return 0, false
	}
	k, unsigned, immForm := cmpOpcode(cmpOp.oc)
	if k == cmpNone {
		return 0, false
	}
	// Loop continues when the back edge is taken: jmpt takes on guard
	// true, jmpf (GuardInverted) on guard false.
	if jumpOp.info.GuardInverted {
		k = k.negate()
	}

	type candidate struct {
		reg   isa.Reg
		rel   cmpKind
		limit interval
	}
	var cands []candidate
	if immForm {
		cands = append(cands, candidate{cmpOp.srcs[0], k, ivSext(cmpOp.imm)})
	} else {
		// Register form: either operand may be the counter; the other
		// must be loop-invariant with a known interval at the compare.
		var buf rangeState
		at := v.rangeAt(cmpIdx, &buf)
		for side := 0; side < 2; side++ {
			reg, other := cmpOp.srcs[side], cmpOp.srcs[1-side]
			rel := k
			if side == 1 {
				rel = k.flip()
			}
			if l.writes[other] > 0 {
				continue
			}
			if limit, ok := at.get(other); ok && limit.valid() {
				cands = append(cands, candidate{reg, rel, limit})
			}
		}
	}

	for _, c := range cands {
		step, ok := l.inductionStep(c.reg)
		if !ok {
			continue
		}
		entry, ok := v.loopEntryInterval(c.reg, l)
		if !ok {
			continue
		}
		bound, ok := tripCount(c.rel, unsigned, entry, c.limit, step)
		if !ok {
			continue
		}
		l.indReg, l.indStep, l.indEntry = c.reg, step, entry
		return bound, true
	}
	return 0, false
}

// uniqueLoopDef finds the single unguarded in-loop definition of reg
// reaching node `at` (walking the reverse CFG inside the loop body; a
// path that reaches the header without a definition means the value
// crosses an iteration boundary, which the inference does not model).
func (v *verifier) uniqueLoopDef(reg isa.Reg, at int, l *loop) (int, *vop, bool) {
	defIdx := -1
	var defOp *vop
	seen := map[int]bool{}
	stack := []int{}
	push := func(p int) {
		if !seen[p] && l.body.has(p) && v.reach[p] {
			seen[p] = true
			stack = append(stack, p)
		}
	}
	for _, p := range v.preds[at] {
		push(p)
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var writer *vop
		for kk := range v.ops[p] {
			op := &v.ops[p][kk]
			if neverExec(op) {
				continue
			}
			for _, d := range op.dests {
				if d == reg {
					if writer != nil {
						return 0, nil, false // intra-node double write
					}
					writer = op
				}
			}
		}
		switch {
		case writer != nil:
			if writer.guard != isa.R1 || writer.info.GuardInverted {
				return 0, nil, false // conditional definition
			}
			if defIdx >= 0 && defIdx != p {
				return 0, nil, false // two reaching definitions
			}
			defIdx, defOp = p, writer
		case p == l.header:
			return 0, nil, false // the definition flows in from outside
		default:
			for _, q := range v.preds[p] {
				push(q)
			}
		}
	}
	if defIdx < 0 {
		return 0, nil, false
	}
	return defIdx, defOp, true
}

// scanWrites records, for every register, the operations in the loop
// body that write it.
func (v *verifier) scanWrites(l *loop) {
	for i := 0; i < len(v.dec); i++ {
		if !l.body.has(i) {
			continue
		}
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if neverExec(op) {
				continue
			}
			for _, d := range op.dests {
				l.writes[d]++
				l.writer[d] = op
			}
		}
	}
}

// inductionStep checks that reg is a linear induction register of the
// loop: exactly one in-loop write, an unguarded iaddi reg, reg, #step.
func (l *loop) inductionStep(reg isa.Reg) (int64, bool) {
	upd := l.writer[reg]
	if l.writes[reg] != 1 || upd.oc != isa.OpIADDI || upd.guard != isa.R1 ||
		len(upd.srcs) == 0 || upd.srcs[0] != reg {
		return 0, false
	}
	step := int64(int32(upd.imm))
	if step == 0 {
		return 0, false
	}
	return step, true
}

// joinLoopEntries sets every loop's entry state: the join of the exit
// states of the header's predecessors outside the body, and of the seed
// state when the header is node 0, from the first-pass range states.
// It runs once between the passes, because boundedWidenings asks about
// every register of every loop; each chain holding such a predecessor
// is replayed once, up to its last one.
func (v *verifier) joinLoopEntries() {
	want := map[int]bool{}
	left := map[int32]int{} // wanted predecessors per chain
	for _, l := range v.loops {
		if l.irreducible {
			continue
		}
		for _, p := range v.preds[l.header] {
			if !l.body.has(p) && v.reach[p] && !want[p] {
				want[p] = true
				left[v.chainOf[p]]++
			}
		}
	}
	exits := make(map[int]*rangeState, len(want))
	for c, k := range left {
		if v.ranges[c] == nil {
			continue // top: the range pass gave up
		}
		st := *v.ranges[c]
		for i := v.leaders[c]; k > 0; i = int(v.next[i]) {
			v.stepRanges(i, &st)
			if want[i] {
				exit := st
				exits[i] = &exit
				k--
			}
		}
	}

	var log []regChange
	for _, l := range v.loops {
		if l.irreducible {
			continue
		}
		have, known := false, true
		if l.header == 0 {
			l.entry, have = *v.entryRangeState(), true
		}
		for _, p := range v.preds[l.header] {
			if l.body.has(p) || !v.reach[p] {
				continue
			}
			exit := exits[p]
			switch {
			case exit == nil:
				known = false
			case have:
				log = mergeRanges(&l.entry, exit, log[:0])
			default:
				l.entry, have = *exit, true
			}
		}
		l.entryKnown = have && known
	}
}

// loopEntryInterval returns reg's interval on the loop's entry edges,
// from the join joinLoopEntries computed.
func (v *verifier) loopEntryInterval(reg isa.Reg, l *loop) (interval, bool) {
	if !l.entryKnown {
		return interval{}, false
	}
	e, ok := l.entry.get(reg)
	if !ok || !e.valid() {
		return interval{}, false
	}
	return e, true
}

// tripCount bounds the number of header entries per loop entry for the
// continue-condition `reg rel limit`, induction step `step` and entry
// interval `entry`. It conservatively assumes the comparison observes
// the pre-update value x0 + t*step (t = 0, 1, ...), the larger of the
// two schedules, so the result is sound whether the compare reads the
// counter before or after the iteration's update.
func tripCount(rel cmpKind, unsigned bool, entry, limit interval, step int64) (int64, bool) {
	// Continue tests with the wrong step direction never make progress
	// toward the exit: unbounded as far as this analysis can tell.
	var continues int64
	switch rel {
	case cmpGT:
		if step >= 0 || entry.hi <= limit.lo {
			if step >= 0 {
				return 0, false
			}
			continues = 0
		} else {
			continues = (entry.hi-limit.lo-1)/(-step) + 1
		}
	case cmpGE:
		if step >= 0 || entry.hi < limit.lo {
			if step >= 0 {
				return 0, false
			}
			continues = 0
		} else {
			continues = (entry.hi-limit.lo)/(-step) + 1
		}
	case cmpLT:
		if step <= 0 || entry.lo >= limit.hi {
			if step <= 0 {
				return 0, false
			}
			continues = 0
		} else {
			continues = (limit.hi-1-entry.lo)/step + 1
		}
	case cmpLE:
		if step <= 0 || entry.lo > limit.hi {
			if step <= 0 {
				return 0, false
			}
			continues = 0
		} else {
			continues = (limit.hi-entry.lo)/step + 1
		}
	default:
		return 0, false
	}
	bound := continues + 1 // the failing test still enters the header once
	if bound <= 0 || bound > 1<<40 {
		return 0, false
	}
	// Every value the comparison may observe must stay inside the
	// relation's interpretation window, or the counter could wrap and
	// the arithmetic above would be meaningless.
	extreme := interval{
		min(entry.lo, entry.lo+step*bound),
		max(entry.hi, entry.hi+step*bound),
	}
	winOK := func(iv interval) bool {
		if unsigned {
			return iv.unsignedOK()
		}
		return iv.signedOK()
	}
	if !winOK(entry) || !winOK(limit) || !winOK(extreme) {
		return 0, false
	}
	return bound, true
}

// boundedWidenings builds the per-header widening clamps for the second
// range pass. In a loop with a known bound, every linear induction
// register (one unguarded constant-step iaddi per iteration) advances
// at most `bound` times, so it stays inside
// [entry.lo + min(0, step*bound), entry.hi + max(0, step*bound)] at
// every header entry. Widening such registers to that window (instead
// of to top) keeps load/store address intervals finite inside counted
// loops — the base pointers, not just the exit counter. The clamp is
// sound by that argument alone, independent of the fixpoint: the
// back-edge join may exceed it by one abstract step (the update before
// the exit test), which widen deliberately discards (see widen).
func (v *verifier) boundedWidenings() map[int]*rangeState {
	clamps := map[int]*rangeState{}
	for _, l := range v.loops {
		if l.irreducible || l.bound == 0 {
			continue
		}
		for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
			step, ok := l.inductionStep(reg)
			if !ok || reg.Hardwired() {
				continue
			}
			entry, ok := v.loopEntryInterval(reg, l)
			if !ok {
				continue
			}
			b := interval{
				entry.lo + min(0, step*l.bound),
				entry.hi + max(0, step*l.bound),
			}
			if !b.valid() {
				continue
			}
			if clamps[l.header] == nil {
				clamps[l.header] = &rangeState{}
			}
			clamps[l.header].set(reg, b)
		}
	}
	return clamps
}

// checkLoopBounds reports loops the cycle-bound analysis cannot bound.
func (v *verifier) checkLoopBounds() {
	for _, l := range v.loops {
		if l.irreducible {
			v.diag(l.header, 0, "", CheckLoopBound, Warn,
				"irreducible control flow: the cycle through this instruction is not a natural loop, so no iteration bound exists")
			continue
		}
		if l.bound == 0 {
			v.diag(l.header, 0, "", CheckLoopBound, Warn,
				"loop has no inferable iteration bound (no counted-loop pattern found); annotate the header label via Builder.LoopBound")
		}
	}
}
