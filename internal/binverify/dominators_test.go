package binverify

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/progen"
	"tm3270/internal/workloads"
)

// graphVerifier builds a verifier over a bare successor graph (index
// len(succ) is the exit) and runs the passes dominance depends on.
func graphVerifier(succ [][]int) *verifier {
	n := len(succ)
	v := &verifier{dec: make([]encode.DecInstr, n), ops: make([][]vop, n), rep: &Report{}, succ: succ}
	v.checkReachability()
	v.buildPreds()
	v.dominators()
	return v
}

// codeVerifier runs the whole verifier, semantic layer included, over a
// compiled program and returns it with its dominance computed.
func codeVerifier(t *testing.T, w *workloads.Spec, tgt config.Target) *verifier {
	t.Helper()
	dec, opts, err := compileWorkload(t, w, tgt)
	if err != nil {
		return nil
	}
	v := newVerifier(dec, &tgt, opts)
	v.run()
	return v
}

// checkDominance compares dominates(h, u) with the definition — u is
// unreachable from node 0 once h is removed — for every h in hs and
// every reachable u. A node unreachable from the entry has no
// dominators: findLoops only asks about reachable ones.
func checkDominance(t *testing.T, name string, v *verifier, hs []int) {
	t.Helper()
	n := len(v.dec)
	seen := make([]bool, n)
	for _, h := range hs {
		clear(seen)
		if h != 0 {
			seen[0] = true
			stack := []int{0}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range v.succ[x] {
					if s < n && s != h && !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			want := v.reach[u] && !seen[u]
			if got := v.dominates(h, u); got != want {
				t.Fatalf("%s: dominates(%d, %d) = %v, want %v (n=%d)", name, h, u, got, want, n)
			}
		}
	}
}

// probeNodes picks the candidate dominators to check: every node of a
// small graph; on a large one the entry, every jump target (all loop
// headers among them) and an even spread of the rest.
func probeNodes(v *verifier) []int {
	n := len(v.dec)
	if n <= 256 {
		hs := make([]int, n)
		for i := range hs {
			hs[i] = i
		}
		return hs
	}
	pick := make([]bool, n)
	pick[0] = true
	for i := range v.succ {
		for _, s := range v.succ[i] {
			if s < n && s != i+1 {
				pick[s] = true
			}
		}
	}
	for i := 0; i < n; i += n / 64 {
		pick[i] = true
	}
	var hs []int
	for i, p := range pick {
		if p {
			hs = append(hs, i)
		}
	}
	return hs
}

// TestDominatorsMatchDefinition checks the dominator relation against
// its definition on hand-built graphs with the awkward shapes, every
// shipped workload on configs A and D, and 200 generated programs.
func TestDominatorsMatchDefinition(t *testing.T) {
	graphs := []struct {
		name string
		succ [][]int
	}{
		// 0 -> 1 -> 2 -> {0, 3}: the loop header is the entry itself.
		{"entry back edge", [][]int{{1}, {2}, {0, 3}, {4}}},
		// 1 and 2 each enter the other's cycle: neither dominates.
		{"irreducible", [][]int{{1, 2}, {2, 3}, {1, 3}, {4}}},
		// 2 is never reached; 3 joins it with the reachable path.
		{"unreachable", [][]int{{1}, {3}, {3}, {4}}},
		// A diamond inside a loop inside a loop.
		{"nested", [][]int{{1}, {2}, {3, 4}, {5}, {5}, {2, 6}, {1, 7}, {8}}},
		// Two exits from a self loop and a straight tail.
		{"self loop", [][]int{{0, 1}, {1, 2, 3}, {3}, {4}}},
	}
	for _, g := range graphs {
		v := graphVerifier(g.succ)
		checkDominance(t, g.name, v, probeNodes(v))
	}

	for _, tgt := range []config.Target{config.ConfigA(), config.ConfigD()} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, workloads.Full())
			if err != nil {
				t.Fatal(err)
			}
			if v := codeVerifier(t, w, tgt); v != nil {
				checkDominance(t, name+" on "+tgt.Name, v, probeNodes(v))
			}
		}
	}

	for _, tgt := range []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()} {
		for seed := int64(1); seed <= 50; seed++ {
			p := progen.Generate(progen.Config{Seed: seed, Target: &tgt, Ops: 256})
			w := &workloads.Spec{Name: "progen", Prog: p}
			if v := codeVerifier(t, w, tgt); v != nil {
				checkDominance(t, "progen "+tgt.Name, v, probeNodes(v))
			}
		}
	}
}
