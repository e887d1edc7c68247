package runner_test

import (
	"context"
	"fmt"
	"testing"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/progen"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
)

// TestStaticClaimsHoldOnExecution checks the verifier's claims about
// generated programs against concrete runs on tmsim: every operation a
// dead-guard diagnostic calls dead must find its guard disabling it
// each time its instruction issues, and the measured cycles must stay
// within the static cycle bound. It covers progen seeds 1–100 at 64
// ops on configs A–D, plus the programs whose claims the chain-based
// range fixpoint tightened (see EXPERIMENTS.md, "Verifier host cost —
// chains").
func TestStaticClaimsHoldOnExecution(t *testing.T) {
	type unit struct {
		seed int64
		ops  int
		tgt  config.Target
	}
	a, b, c, d := config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()
	var units []unit
	for _, tgt := range []config.Target{a, b, c, d} {
		for seed := int64(1); seed <= 100; seed++ {
			units = append(units, unit{seed, 64, tgt})
		}
	}
	units = append(units, unit{202, 64, a},
		unit{171, 256, b}, unit{171, 256, c}, unit{171, 256, d},
		unit{386, 256, b}, unit{386, 256, c}, unit{434, 256, b}, unit{434, 256, c})

	deadGuards, issued := 0, 0
	for _, u := range units {
		p := progen.Generate(progen.Config{Seed: u.seed, Target: &u.tgt, Ops: u.ops})
		art, err := runner.Compile(p, u.tgt)
		if err != nil {
			continue // not schedulable on this target
		}
		opts := &binverify.Options{EntryDefined: []isa.Reg{}, EntryValues: map[isa.Reg]uint32{}}
		rep, err := art.VerifyStatic(&u.tgt, opts)
		if rep == nil {
			t.Fatalf("seed %d on %s: %v", u.seed, u.tgt.Name, err)
		}
		cb, err := art.CycleBound(&u.tgt, opts)
		if err != nil {
			t.Fatalf("seed %d on %s: %v", u.seed, u.tgt.Name, err)
		}
		dec, err := encode.Decode(art.Enc.Bytes, tmsim.CodeBase, len(art.Code.Instrs))
		if err != nil {
			t.Fatal(err)
		}

		// The guards the report calls provably false, by instruction.
		type deadOp struct {
			slot     int
			guard    isa.Reg
			inverted bool
		}
		dead := map[int][]deadOp{}
		for _, dg := range rep.Diags {
			if dg.Check != binverify.CheckDeadGuard {
				continue
			}
			op := dec[dg.Index].Slots[dg.Slot-1]
			info, ok := isa.InfoOK(isa.Opcode(op.Opcode))
			if !ok {
				t.Fatalf("seed %d on %s: dead guard on undefined opcode: %s", u.seed, u.tgt.Name, dg.String())
			}
			dead[dg.Index] = append(dead[dg.Index], deadOp{dg.Slot, op.Guard, info.GuardInverted})
			deadGuards++
		}

		live := map[string]bool{} // dead claims the run falsified
		h := runner.Load(art, nil, runner.WithMachineSetup(func(m *tmsim.Machine) {
			if len(dead) == 0 {
				return
			}
			m.InstrHook = func(_, _ int64, idx int) {
				for _, op := range dead[idx] {
					issued++
					if bit := m.RegSnapshot()[op.guard] & 1; (bit == 1) != op.inverted {
						live[fmt.Sprintf("instr %d slot %d (guard %s)", idx, op.slot, op.guard)] = true
					}
				}
			}
		}))
		if err := h.RunContext(context.Background()); err != nil {
			t.Fatalf("seed %d (%d ops) on %s: %v", u.seed, u.ops, u.tgt.Name, err)
		}
		if len(live) > 0 {
			t.Errorf("seed %d (%d ops) on %s: operations the verifier calls dead executed: %v",
				u.seed, u.ops, u.tgt.Name, live)
		}
		if meas := int64(h.Machine.Stats.Cycles); cb.Bounded && cb.Cycles < meas {
			t.Errorf("seed %d (%d ops) on %s: static bound %d < measured %d",
				u.seed, u.ops, u.tgt.Name, cb.Cycles, meas)
		}
	}
	if issued == 0 {
		t.Errorf("%d dead-guard claims, none on an instruction that issued: the guard check exercised nothing", deadGuards)
	}
	t.Logf("%d programs, %d dead-guard claims checked at %d issues", len(units), deadGuards, issued)
}
