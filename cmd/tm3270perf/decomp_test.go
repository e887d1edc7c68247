package main

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"tm3270/internal/binverify"
	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// The per-layer attribution is only right while the traced sequences
// are the program's: compileTraced must build the artifact runner.Compile
// builds, and staticCheckTraced must reach the verdicts of
// Artifact.VerifyStatic and Artifact.CycleBound. A stage added to or
// removed from those entry points fails this test.
func TestTracedDecompositionMatches(t *testing.T) {
	tr := newTracer("test", false, false)
	for _, name := range workloads.Names() {
		if testing.Short() && strings.HasPrefix(name, "mpeg2") {
			continue // the decoders' static verification takes seconds
		}
		spec, err := workloads.ByName(name, workloads.Small())
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []config.Target{config.ConfigA(), config.ConfigD()} {
			o := tr.begin()
			got, gerr := compileTraced(o, spec.Prog, target)
			want, werr := runner.Compile(spec.Prog, target)
			var gse, wse *runner.ScheduleError
			if errors.As(gerr, &gse) != errors.As(werr, &wse) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s on %s: traced compile error %v, runner.Compile error %v", name, target.Name, gerr, werr)
			}
			if werr != nil {
				o.end()
				continue
			}
			if !bytes.Equal(got.Enc.Bytes, want.Enc.Bytes) || len(got.Code.Instrs) != len(want.Code.Instrs) ||
				!slices.Equal(got.RegMap.Phys, want.RegMap.Phys) {
				t.Errorf("%s on %s: traced compile built a different artifact", name, target.Name)
			}

			opts := want.VerifyOptions(spec)
			wrep, werr := want.VerifyStatic(&target, opts)
			var wcb *binverify.CycleBound
			if werr == nil {
				if wcb, err = want.CycleBound(&target, opts); err != nil {
					t.Fatal(err)
				}
			}
			grep, gcb, gerr := staticCheckTraced(o, got, &target, got.VerifyOptions(spec))
			o.end()
			if (gerr == nil) != (werr == nil) || len(grep.Diags) != len(wrep.Diags) || grep.Errors() != wrep.Errors() {
				t.Errorf("%s on %s: traced verify %d diags (%v), VerifyStatic %d diags (%v)",
					name, target.Name, len(grep.Diags), gerr, len(wrep.Diags), werr)
			}
			if gerr == nil && werr == nil && (gcb.Bounded != wcb.Bounded || gcb.Cycles != wcb.Cycles) {
				t.Errorf("%s on %s: traced cycle bound %v/%d, CycleBound %v/%d",
					name, target.Name, gcb.Bounded, gcb.Cycles, wcb.Bounded, wcb.Cycles)
			}
		}
	}
	ledger, _, _ := tr.snapshot()
	for _, s := range []string{"sched.schedule", "sched.verify", "regalloc.allocate", "encode.encode",
		"encode.decode", "binverify.verify", "binverify.wcet"} {
		if ledger[s].Calls == 0 {
			t.Errorf("span %s never recorded", s)
		}
	}
}

// The traced campaign unit reaches cosim.RunGenerated's verdict.
func TestTracedCosimMatches(t *testing.T) {
	g := &gates{}
	bi, err := setupCampaign(&options{seed: 1, tiny: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	b := bi.(*campaignBench)
	defer b.release()
	b.passSnap = map[string]int64{}
	tr := newTracer("test", false, false)
	for seed := int64(1); seed <= 12; seed++ {
		for _, target := range []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()} {
			u := campaign.Unit{Kind: cosim.KindGenerated, Seed: seed, Ops: campaignGenOps, Target: target.Name}
			o := tr.begin()
			got, gerr := b.generatedTraced(context.Background(), o, u, target)
			o.end()
			want, werr := cosim.RunGenerated(seed, target, campaignGenOps, cosim.Options{})
			if gerr != nil || werr != nil {
				t.Fatalf("seed %d on %s: traced error %v, cosim error %v", seed, target.Name, gerr, werr)
			}
			if got.Instrs != want.Instrs || (got.Div == nil) != (want.Div == nil) {
				t.Errorf("seed %d on %s: traced %d instrs div %v, cosim %d instrs div %v",
					seed, target.Name, got.Instrs, got.Div, want.Instrs, want.Div)
			}
		}
	}
	if len(g.failures) > 0 {
		t.Errorf("gates: %v", g.failures)
	}
}
