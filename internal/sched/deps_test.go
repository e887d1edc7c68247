package sched

import (
	"fmt"
	"math"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/workloads"
)

// depEdge is one dependence edge: succ issues at least weight cycles
// after pred.
type depEdge struct{ pred, succ, weight int }

// refMayAlias is the pairwise alias rule, looking up both infos.
func refMayAlias(a, b *prog.Op) bool {
	if a.MemGroup != 0 && b.MemGroup != 0 && a.MemGroup != b.MemGroup {
		return false
	}
	ai, bi := a.Info(), b.Info()
	if ai.HasImm && bi.HasImm && a.Src[0] == b.Src[0] {
		alo, ahi := int64(int32(a.Imm)), int64(int32(a.Imm))+int64(ai.MemBytes)
		blo, bhi := int64(int32(b.Imm)), int64(int32(b.Imm))+int64(bi.MemBytes)
		return alo < bhi && blo < ahi
	}
	return true
}

// refDeps is the brute-force reference for buildDeps: the same
// register dependences, and each load tested against every earlier
// store, each store against every earlier load and then every earlier
// store. It returns the edges in the order it adds them.
func refDeps(body []prog.Op, t *config.Target, numVRegs int) []depEdge {
	lat := func(i int) int { return t.OpLatency(body[i].Opcode) }
	lastDef, uses := make([]int, numVRegs), make([][]int, numVRegs)
	for r := range lastDef {
		lastDef[r] = -1
	}
	var edges []depEdge
	var loads, stores []int
	add := func(succ, pred, weight int) {
		if succ != pred {
			edges = append(edges, depEdge{pred, succ, weight})
		}
	}
	for i := range body {
		op := &body[i]
		info := op.Info()
		reads := [5]prog.VReg{op.Guard, op.Src[0], op.Src[1], op.Src[2], op.Src[3]}
		for _, r := range reads[:1+info.NSrc] {
			if r.Pinned() {
				continue
			}
			if d := lastDef[r]; d >= 0 {
				add(i, d, lat(d))
			}
			uses[r] = append(uses[r], i)
		}
		for _, d := range op.Dest[:info.NDest] {
			if pd := lastDef[d]; pd >= 0 {
				add(i, pd, max(lat(pd)-lat(i)+1, 1))
			}
			for _, u := range uses[d] {
				if u != i {
					add(i, u, 0)
				}
			}
			lastDef[d] = i
			uses[d] = uses[d][:0]
			if op.Guard != prog.One {
				uses[d] = append(uses[d], i)
			}
		}
		switch {
		case info.IsLoad:
			for _, st := range stores {
				if refMayAlias(op, &body[st]) {
					add(i, st, 1)
				}
			}
			loads = append(loads, i)
		case info.IsStore:
			for _, l := range loads {
				if refMayAlias(op, &body[l]) {
					add(i, l, 0)
				}
			}
			for _, st := range stores {
				if refMayAlias(op, &body[st]) {
					add(i, st, 1)
				}
			}
			stores = append(stores, i)
		}
	}
	return edges
}

// builtDeps returns the edges buildDeps builds for body, in the order
// it adds them, and how many memory ops queried the alias index.
func builtDeps(s *scratch, body []prog.Op, t *config.Target) (edges []depEdge, indexed int) {
	ops := s.deps(body, t)
	pred := make([]int, len(s.edges))
	for j := range ops {
		for k := ops[j].succ; k >= 0; k = s.edges[k].next {
			pred[k] = j
		}
	}
	for k, e := range s.edges {
		edges = append(edges, depEdge{pred[k], int(e.to), int(e.weight)})
	}
	for i := range body {
		if info := ops[i].info; (info.IsLoad || info.IsStore) && s.indexed(body, i) {
			indexed++
		}
	}
	return edges, indexed
}

// checkDeps compares the indexed dependence graph of every block of p
// with the reference's and returns how many ops queried the index.
func checkDeps(t *testing.T, p *prog.Program, tgt *config.Target) int {
	t.Helper()
	s := newScratch(p.NumVRegs)
	indexed := 0
	for bi, b := range p.Blocks {
		body := b.Body()
		got, n := builtDeps(s, body, tgt)
		indexed += n
		want := refDeps(body, tgt, p.NumVRegs)
		if err := sameEdges(got, want); err != nil {
			t.Fatalf("%s on %s, block %d (%q, %d ops): %v", p.Name, tgt.Name, bi, b.Label, len(body), err)
		}
	}
	return indexed
}

// sameEdges reports the first difference between two edge sequences.
// Equal sequences also have equal multisets of (pred, succ, weight).
func sameEdges(got, want []depEdge) error {
	for k := range min(len(got), len(want)) {
		if got[k] != want[k] {
			return fmt.Errorf("edge %d is %+v, reference %+v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d edges, reference %d", len(got), len(want))
	}
	return nil
}

// TestBuildDepsMatchesReference pins the dependence graph behind every
// schedule: the alias index must yield exactly the edges, weights and
// order of testing every pair of memory operations, on every registry
// workload at Full() sizes on configs A and D and on progen seeds 1–200
// at 64 and 256 ops. schedule.golden pins only the schedules these
// graphs produce.
func TestBuildDepsMatchesReference(t *testing.T) {
	indexed := 0
	for _, tgt := range []config.Target{config.ConfigA(), config.ConfigD()} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, workloads.Full())
			if err != nil {
				t.Fatal(err)
			}
			indexed += checkDeps(t, w.Prog, &tgt)
		}
		for _, ops := range []int{64, 256} {
			for seed := int64(1); seed <= 200; seed++ {
				checkDeps(t, progen.Generate(progen.Config{Seed: seed, Target: &tgt, Ops: ops}), &tgt)
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no memory op queried the alias index")
	}
}

// TestBuildDepsEdgeCases runs the reference comparison on one block
// built to sit on every boundary of the index: two bases in one group,
// non-displacement ops in non-zero groups, group-0 ops among grouped
// ones, a negative group, negative and extreme displacements,
// displacements on either side of 0 and of 8, a zero-byte store and
// 5- and 8-byte loads.
func TestBuildDepsEdgeCases(t *testing.T) {
	b := prog.NewBuilder("aliasedges")
	p, q, idx, f := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	v := b.Regs(24)
	b.St32D(p, 0, v[0]).InGroup(1)
	b.Ld32D(v[1], p, -1).InGroup(1)
	b.St32D(p, -4, v[2]).InGroup(1)
	b.Ld32D(v[3], p, 7).InGroup(1)
	b.St32D(p, 8, v[4]).InGroup(1)
	b.Ld32D(v[5], p, 8).InGroup(1)
	b.Ld8D(v[6], p, 7).InGroup(1)
	b.St8D(p, 7, v[7]).InGroup(1)
	b.St16D(p, 6, v[8]).InGroup(1)
	b.Ld32D(v[9], q, 0).InGroup(1) // second base in group 1
	b.St32D(q, 4, v[10]).InGroup(1)
	b.Ld32R(v[11], p, idx).InGroup(1) // non-displacement, group 1
	b.St32D(p, 0, v[12])              // group 0
	b.Ld32D(v[13], p, 4)              // group 0
	b.St32D(p, 16, v[14]).InGroup(1)
	b.AllocD(p, 4).InGroup(1) // zero-byte store
	b.Ld32D(v[15], p, 3).InGroup(1)
	b.LdFrac8(v[16], p, f).InGroup(1)             // 5 bytes
	b.SuperLd32R(v[17], v[18], p, idx).InGroup(1) // 8 bytes
	b.St32D(p, 0, v[19]).InGroup(2)
	b.Ld32D(v[20], p, 2).InGroup(2)
	b.St32D(p, 0, v[21]).InGroup(-1)
	b.Ld32D(v[22], p, 0).InGroup(-1)
	b.St32D(q, math.MaxInt32-3, v[23]).InGroup(3)
	b.Ld32D(v[0], q, math.MinInt32).InGroup(3)
	b.Ld32D(v[1], q, math.MaxInt32-1).InGroup(3)
	b.St8D(q, math.MinInt32+7, v[2]).InGroup(3)
	tgt := config.ConfigD()
	if checkDeps(t, b.MustProgram(), &tgt) == 0 {
		t.Fatal("no memory op queried the alias index")
	}
}

// TestDisplacementWidth guards the index's window: a same-base
// displacement form is only tested against displacements less than
// maxMemBytes away, which covers every pair that can overlap only
// while no displacement form touches more than maxMemBytes bytes.
func TestDisplacementWidth(t *testing.T) {
	for op := range isa.Opcode(isa.NumOpcodes) {
		info, ok := isa.InfoOK(op)
		if ok && (info.IsLoad || info.IsStore) && info.HasImm && info.MemBytes > maxMemBytes {
			t.Errorf("%s is a %d-byte displacement form, wider than maxMemBytes = %d", info.Name, info.MemBytes, maxMemBytes)
		}
	}
}
