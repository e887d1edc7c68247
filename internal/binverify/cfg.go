package binverify

import "tm3270/internal/isa"

// jumpRef is one jump operation located in the stream, with its target
// resolved to an instruction index and its guard classified.
type jumpRef struct {
	idx       int // instruction index of the jump
	slot      int // 1-based issue slot
	name      string
	targetIdx int  // index the target address decodes to (n = image end)
	targetOK  bool // target lies on an instruction boundary
	always    bool // hardwired guard forces the jump taken
	never     bool // hardwired guard forces the jump not taken
}

// analyzeJumps resolves jump targets against the decoded instruction
// boundaries, classifies hardwired guards, and reports invalid targets
// and delay-window conflicts (the static image of TrapDelayViolation:
// a second jump taken inside a taken jump's delay window traps).
func (v *verifier) analyzeJumps() []jumpRef {
	n := len(v.dec)
	addrToIdx := make(map[uint32]int, n+1)
	for i := range v.dec {
		addrToIdx[v.dec[i].Addr] = i
	}
	// A jump to the end address is the legal kernel exit (the encoder
	// emits it for the final block's fallthrough).
	end := v.dec[n-1].Addr + uint32(v.dec[n-1].Size)
	addrToIdx[end] = n

	var jumps []jumpRef
	for i := range v.dec {
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if !op.info.IsJump {
				continue
			}
			j := jumpRef{idx: i, slot: op.slot, name: op.mn()}
			// The guard enables execution when its low bit is 1 (inverted
			// for jmpf); r1 reads 1 and r0 reads 0, so a hardwired guard
			// decides the jump statically.
			switch op.guard {
			case isa.R1:
				j.always, j.never = !op.info.GuardInverted, op.info.GuardInverted
			case isa.R0:
				j.always, j.never = op.info.GuardInverted, !op.info.GuardInverted
			}
			j.targetIdx, j.targetOK = addrToIdx[op.target]
			if !j.targetOK && !j.never {
				v.diag(i, op.slot, op.mn(), CheckJumpTarget, Error,
					"target %#x is not an instruction boundary (image spans %#x-%#x)",
					op.target, v.dec[0].Addr, end)
			}
			jumps = append(jumps, j)
		}
	}

	// Delay-window conflicts: a taken jump at issue j redirects after
	// issue j+delay; a second jump taken at any issue in (j, j+delay]
	// (or in the same instruction) raises TrapDelayViolation.
	delay := v.t.JumpDelaySlots
	for a := 0; a < len(jumps); a++ {
		if jumps[a].never {
			continue
		}
		for b := a + 1; b < len(jumps); b++ {
			if jumps[b].never || jumps[b].idx > jumps[a].idx+delay {
				continue
			}
			sev, verb := Warn, "may raise"
			if jumps[a].always && jumps[b].always {
				sev, verb = Error, "raises"
			}
			v.diag(jumps[b].idx, jumps[b].slot, jumps[b].name, CheckDelayWindow, sev,
				"%s inside the %d-instruction delay window of the %s at instr %d %s a delay violation trap if both are taken",
				jumps[b].name, delay, jumps[a].name, jumps[a].idx, verb)
		}
	}
	return jumps
}

// buildCFG constructs the instruction-level control-flow graph. A taken
// jump at index j redirects control after the instruction at j+delay,
// so the jump edge leaves the *redirect node* j+delay, not the jump
// itself — that is where cross-boundary latency state must join. Index
// n is the exit pseudo-node.
func (v *verifier) buildCFG(jumps []jumpRef) {
	n := len(v.dec)
	delay := v.t.JumpDelaySlots
	v.succ = make([][]int, n)
	killFall := make([]bool, n)

	for _, j := range jumps {
		if j.never || !j.targetOK {
			continue
		}
		r := j.idx + delay // redirect node
		if r >= n {
			// The machine runs off the image end before the redirect
			// lands: the jump can never reach its target.
			v.diag(j.idx, j.slot, j.name, CheckDelayWindow, Warn,
				"delay window (%d instructions) extends past the image end; the redirect never happens",
				delay)
			continue
		}
		v.succ[r] = append(v.succ[r], j.targetIdx)
		if j.always {
			killFall[r] = true
		}
	}
	for i := 0; i < n; i++ {
		if !killFall[i] {
			v.succ[i] = append(v.succ[i], i+1)
		}
	}
}

// checkReachability walks the CFG from the entry and warns about
// instructions no path reaches (the first of each unreachable run, to
// keep the report readable). Pad instructions holding only NOPs are
// exempt: the encoder emits them to fill delay slots.
func (v *verifier) checkReachability() {
	n := len(v.dec)
	v.reach = make([]bool, n)
	stack := []int{0}
	v.reach[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range v.succ[i] {
			if s < n && !v.reach[s] {
				v.reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	inRun := false
	for i := 0; i < n; i++ {
		if v.reach[i] {
			inRun = false
			continue
		}
		if len(v.ops[i]) > 0 && !inRun {
			v.diag(i, 0, "", CheckUnreachable, Warn,
				"instruction is unreachable from the entry")
			inRun = true
		}
	}
}

// buildChains partitions the reachable nodes into straight-line chains.
// A chain starts at a leader — node 0, a node with other than one
// reachable predecessor, or a successor of a node with other than one
// successor — and follows single-successor edges until the next leader.
// Every reachable node lies in exactly one chain, and every loop header
// is a leader (it has an entry edge and a back edge, or is node 0), so
// all joins of the fixpoint land on leaders. Leaders are numbered in
// node order; chain 0 starts at node 0.
func (v *verifier) buildChains() {
	n := len(v.dec)
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		if !v.reach[i] {
			continue
		}
		preds := 0
		for _, p := range v.preds[i] {
			if v.reach[p] {
				preds++
			}
		}
		if preds != 1 {
			leader[i] = true
		}
		if len(v.succ[i]) != 1 {
			for _, s := range v.succ[i] {
				if s < n {
					leader[s] = true
				}
			}
		}
	}
	v.next, v.chainOf = make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		v.next[i], v.chainOf[i] = -1, -1
		if !v.reach[i] {
			continue
		}
		if len(v.succ[i]) == 1 {
			if s := v.succ[i][0]; s < n && !leader[s] {
				v.next[i] = int32(s)
			}
		}
		if leader[i] {
			v.leaders = append(v.leaders, i)
		}
	}
	for c, head := range v.leaders {
		for i := head; i >= 0; i = int(v.next[i]) {
			v.chainOf[i] = int32(c)
		}
	}
}

// chainFixpoint runs a forward worklist over the chains, from the entry
// state the caller put in states[0]. A chain visit copies its leader's
// state once and steps it in place across the chain; the tail's exit
// state then seeds each successor leader reached for the first time
// (states[c] is nil until then) or is joined into it, and a leader
// whose state changed is queued again. slab backs the states, one per
// leader. step returning false abandons the pass: chainFixpoint then
// returns false with the states cut short.
func chainFixpoint[S any](v *verifier, states []*S, slab []S,
	step func(i int, st *S) bool, join func(dst, src *S, s int) bool) bool {
	n := len(v.dec)
	work := []int{0}
	queued := make([]bool, len(v.leaders))
	queued[0] = true
	var st S
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		queued[c] = false
		st = *states[c]
		i := v.leaders[c]
		for ; ; i = int(v.next[i]) {
			if !step(i, &st) {
				return false
			}
			if v.next[i] < 0 {
				break
			}
		}
		for _, s := range v.succ[i] {
			if s >= n {
				continue
			}
			sc := v.chainOf[s]
			changed := true
			if states[sc] == nil {
				slab[sc] = st
				states[sc] = &slab[sc]
			} else {
				changed = join(states[sc], &st, s)
			}
			if changed && !queued[sc] {
				queued[sc] = true
				work = append(work, int(sc))
			}
		}
	}
	return true
}

// walkChains replays the leader states across their chains and calls fn
// with every reachable node's entry state, until fn returns false. A
// chain whose leader state is nil (top) passes nil at every node; fn
// must not modify the state. Chains are walked in leader order, so
// nodes are not visited in index order.
func walkChains[S any](v *verifier, states []*S, step func(i int, st *S), fn func(i int, st *S) bool) {
	var st S
	for c, head := range v.leaders {
		var cur *S
		if in := states[c]; in != nil {
			st, cur = *in, &st
		}
		for i := head; i >= 0; i = int(v.next[i]) {
			if !fn(i, cur) {
				return
			}
			if cur != nil && v.next[i] >= 0 {
				step(i, cur)
			}
		}
	}
}
