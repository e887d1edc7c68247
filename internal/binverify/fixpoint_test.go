package binverify

import (
	"fmt"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/progen"
	"tm3270/internal/workloads"
)

// TestRangePostFixpoint checks the range states for the property their
// soundness rests on, whatever order the worklist visited the chains
// in: stepping any reachable node's replayed entry state across the
// node lands inside the entry state of each successor. The one
// exception is a register a bounded-widening clamp pins at a loop
// header, which the back edge may exceed by one step (see widen). Both
// passes are checked, on every workload at Full() sizes on configs A
// and D and on progen seeds 1–200 on A–D. With the iteration cap below
// the reachable node count, every state must be top instead. The
// latency pass's leader states are checked on the same programs (see
// checkLatencyStates).
func TestRangePostFixpoint(t *testing.T) {
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	for _, tgt := range []config.Target{targets[0], targets[3]} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, workloads.Full())
			if err != nil {
				t.Fatal(err)
			}
			dec, opts, err := compileWorkload(t, w, tgt)
			if err != nil {
				continue // TM3270-only workload on an earlier target
			}
			checkRangeStates(t, fmt.Sprintf("%s on %s", name, tgt.Name), dec, &tgt, opts)
		}
	}
	tm3260 := config.TM3260()
	checkRangeStates(t, "late join into a visited leader", lateJoin(), &tm3260,
		&Options{EntryDefined: []isa.Reg{r2, r3, r4, r5, r10}, EntryValues: map[isa.Reg]uint32{}})
	opsSizes := []int{64, 256}
	if testing.Short() {
		opsSizes = opsSizes[:1]
	}
	for _, ops := range opsSizes {
		for _, tgt := range targets {
			for seed := int64(1); seed <= 200; seed++ {
				p := progen.Generate(progen.Config{Seed: seed, Target: &tgt, Ops: ops})
				_, _, _, dec, err := compileProgram(t, p, tgt)
				if err != nil {
					continue
				}
				opts := &Options{EntryDefined: []isa.Reg{}, EntryValues: map[isa.Reg]uint32{}}
				checkRangeStates(t, fmt.Sprintf("seed %d (%d ops) on %s", seed, ops, tgt.Name), dec, &tgt, opts)
			}
		}
	}
}

// lateJoin is a TM3260 stream (3 delay slots) whose join at node 16
// changes after the leader was visited: the chain worklist first
// reaches node 16 through node 12, which defines r13, and only then
// through nodes 4 and 8, which do not. Node 16 must be visited again so
// that node 20's read of r13 is seen as possibly uninitialized.
func lateJoin() []encode.DecInstr {
	empty := [5]*encode.DecOp{}
	return stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(12))}, empty, empty, empty,
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r5, addrOf(8))}, empty, empty, empty,
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, isa.R1, addrOf(16))}, empty, empty, empty,
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, r13)}, empty, empty, empty,
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r10, addrOf(20))}, empty, empty, empty,
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r13, r2, r14)},
	)
}

// checkRangeStates verifies one binary: loop headers lead chains, the
// post-fixpoint property holds for the final states and for a rerun
// first pass, and the capped run leaves every state top.
func checkRangeStates(t *testing.T, name string, dec []encode.DecInstr, tgt *config.Target, opts *Options) {
	t.Helper()
	v := newVerifier(dec, tgt, opts)
	v.run()
	checkLatencyStates(t, name, v)
	if v.rangesCapped {
		t.Errorf("%s: range pass hit the iteration cap", name)
		return
	}
	for _, l := range v.loops {
		if c := v.chainOf[l.header]; !l.irreducible && v.leaders[c] != l.header {
			t.Errorf("%s: loop header %d is not a chain leader", name, l.header)
		}
	}
	// The loop entry states are the first pass's, so this rebuilds the
	// clamps the second pass ran with.
	checkPostFixpoint(t, name+", second pass", v, v.boundedWidenings())
	v.rangeFixpoint(nil)
	checkPostFixpoint(t, name+", first pass", v, nil)

	reachable := reachableNodes(v)
	if reachable < 2 {
		return
	}
	c := newVerifier(dec, tgt, opts)
	c.rangeCap = reachable - 1 // every reachable node is visited at least once
	c.run()
	if !c.rangesCapped {
		t.Errorf("%s: %d visits reached a fixpoint over %d reachable nodes", name, c.rangeCap, reachable)
	}
	c.walkRanges(func(i int, st *rangeState) bool {
		if st != nil {
			t.Errorf("%s: node %d kept a range state after the cap", name, i)
			return false
		}
		return true
	})
}

// checkPostFixpoint walks the replayed states and checks every edge out
// of every reachable node. Registers clamps pins at a header are exempt
// at that header.
func checkPostFixpoint(t *testing.T, name string, v *verifier, clamps map[int]*rangeState) {
	t.Helper()
	n := len(v.dec)
	var out rangeState
	visited, next, ok := 0, -1, true
	v.walkRanges(func(i int, st *rangeState) bool {
		visited++
		if st == nil {
			t.Errorf("%s: node %d has no state after a converged pass", name, i)
			ok = false
			return ok
		}
		if i == next && *st != out {
			t.Errorf("%s: replayed entry state of node %d is not its predecessor's exit state", name, i)
			ok = false
			return ok
		}
		out = *st
		v.stepRanges(i, &out)
		next = int(v.next[i])
		for _, s := range v.succ[i] {
			if s >= n || s == next {
				continue // the exit, or the chain's next node (checked above)
			}
			in := v.ranges[v.chainOf[s]]
			if r, inside := within(&out, in, clamps[s]); !inside {
				got, _ := out.lookup(r)
				want, _ := in.lookup(r)
				t.Errorf("%s: edge %d->%d carries %s in %v (known in exit: %v), outside the successor's %v",
					name, i, s, r, got, out.has.has(r), want)
				ok = false
				return ok
			}
		}
		return true
	})
	if reachable := reachableNodes(v); ok && visited != reachable {
		t.Errorf("%s: replay visited %d nodes, %d are reachable", name, visited, reachable)
	}
}

func reachableNodes(v *verifier) int {
	n := 0
	for _, r := range v.reach {
		if r {
			n++
		}
	}
	return n
}

// within reports whether every register known in `in` is known in out
// with an interval inside it, apart from the registers clamp holds;
// otherwise it returns the first register that is not.
func within(out, in, clamp *rangeState) (isa.Reg, bool) {
	if in == nil {
		return 0, true // top holds everything
	}
	bad, ok := isa.Reg(0), true
	in.each(func(r isa.Reg, iv interval) {
		if _, clamped := clamp.lookup(r); !ok || clamped {
			return
		}
		o, known := out.lookup(r)
		if !known || o.lo < iv.lo || o.hi > iv.hi {
			bad, ok = r, false
		}
	})
	return bad, ok
}

// checkLatencyStates reruns the latency pass and checks its leader
// states: stepping any reachable node's replayed entry state across the
// node must join into each successor leader's state without changing
// it (a post-fixpoint), and the replayed state at every reachable node
// must equal that of a per-instruction worklist. The lattices have no
// widening, so both fixpoints are the least one and agree exactly.
func checkLatencyStates(t *testing.T, name string, v *verifier) {
	t.Helper()
	n := len(v.dec)
	states, ref := v.dataflow(), referenceLatency(v)
	var out dfState
	visited, ok := 0, true
	walkChains(v, states, v.stepLatency, func(i int, st *dfState) bool {
		visited++
		if st == nil || ref[i] == nil || *st != *ref[i] {
			t.Errorf("%s: latency state at node %d differs from the per-instruction fixpoint", name, i)
			ok = false
			return ok
		}
		out = *st
		v.stepLatency(i, &out)
		for _, s := range v.succ[i] {
			if s >= n || s == int(v.next[i]) {
				continue // the exit, or the chain's next node (compared above)
			}
			if in := *states[v.chainOf[s]]; in.mergeFrom(&out) {
				t.Errorf("%s: latency edge %d->%d carries a state outside the successor's", name, i, s)
				ok = false
				return ok
			}
		}
		return true
	})
	if reachable := reachableNodes(v); ok && visited != reachable {
		t.Errorf("%s: latency replay visited %d nodes, %d are reachable", name, visited, reachable)
	}
}

// referenceLatency runs the latency fixpoint one instruction at a time,
// with one state per reachable node, joined on every edge.
func referenceLatency(v *verifier) []*dfState {
	n := len(v.dec)
	ref := make([]*dfState, n)
	ref[0] = &dfState{def: v.entryDefined}
	ref[0].def.add(isa.R0)
	ref[0].def.add(isa.R1)
	for work := []int{0}; len(work) > 0; work = work[1:] {
		out := *ref[work[0]]
		v.stepLatency(work[0], &out)
		for _, s := range v.succ[work[0]] {
			if s >= n {
				continue
			}
			if ref[s] == nil {
				st := out
				ref[s] = &st
			} else if !ref[s].mergeFrom(&out) {
				continue
			}
			work = append(work, s)
		}
	}
	return ref
}
