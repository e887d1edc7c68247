package binverify

// bitset is a fixed-capacity bit vector over instruction indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// buildPreds inverts the successor graph (exit pseudo-node excluded).
func (v *verifier) buildPreds() {
	n := len(v.dec)
	v.preds = make([][]int, n)
	for i := 0; i < n; i++ {
		for _, s := range v.succ[i] {
			if s < n {
				v.preds[s] = append(v.preds[s], i)
			}
		}
	}
}

// dominators computes the immediate dominator of every reachable node
// (Cooper, Harvey and Kennedy's iterative scheme over reverse postorder):
// a node's idom is the nearest common ancestor, in the tree built so
// far, of its processed predecessors. The pass keeps two ints per node
// and usually settles in two rounds; dominance is a walk up the idom
// chain.
func (v *verifier) dominators() {
	n := len(v.dec)
	v.rpo, v.idom = make([]int, n), make([]int, n)
	order := make([]int, 0, n) // postorder of the reachable nodes
	next := make([]int, n)     // DFS cursor into succ
	for i := range v.rpo {
		v.rpo[i], v.idom[i] = -1, -1
	}
	v.rpo[0] = 0
	for stack := []int{0}; len(stack) > 0; {
		x := stack[len(stack)-1]
		if next[x] == len(v.succ[x]) {
			stack = stack[:len(stack)-1]
			order = append(order, x)
			continue
		}
		s := v.succ[x][next[x]]
		next[x]++
		if s < n && v.rpo[s] < 0 {
			v.rpo[s] = 0 // visited; numbered below
			stack = append(stack, s)
		}
	}
	for k, x := range order {
		v.rpo[x] = len(order) - 1 - k
	}
	v.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for k := len(order) - 2; k >= 0; k-- { // reverse postorder, entry excluded
			x := order[k]
			nd := -1
			for _, p := range v.preds[x] {
				switch {
				case v.idom[p] < 0: // unreachable, or not yet processed
				case nd < 0:
					nd = p
				default:
					nd = v.commonDominator(p, nd)
				}
			}
			if nd != v.idom[x] {
				v.idom[x] = nd
				changed = true
			}
		}
	}
}

// commonDominator returns the nearest common ancestor of a and b in the
// idom tree: an idom always precedes its node in reverse postorder.
func (v *verifier) commonDominator(a, b int) int {
	for a != b {
		for v.rpo[a] > v.rpo[b] {
			a = v.idom[a]
		}
		for v.rpo[b] > v.rpo[a] {
			b = v.idom[b]
		}
	}
	return a
}

// dominates reports whether h dominates u; a node unreachable from the
// entry has no dominators.
func (v *verifier) dominates(h, u int) bool {
	if v.rpo[h] < 0 || v.rpo[u] < 0 {
		return false
	}
	for v.rpo[u] > v.rpo[h] {
		u = v.idom[u]
	}
	return u == h
}
