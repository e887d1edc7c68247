package runner_test

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/workloads"
)

// TestEnginesAgree holds the repo's two execution engines — the
// pipeline model's block-cache loop and the independent sequential
// reference model — to identical architectural behaviour on every
// workload of the suite, on every processor target it schedules for:
// the full register file at every instruction boundary (lockstep),
// then the trap identity, retired instruction count, registers and
// memory at the end. Cycle accounting has no second implementation;
// TestExecGolden pins it.
func TestEnginesAgree(t *testing.T) {
	p := workloads.Small()
	targets := []config.Target{
		config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD(),
		config.TM3260(), config.TM3270(),
	}
	pairs := 0
	for _, tgt := range targets {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cosim.RunWorkload(w, tgt, cosim.Options{Lockstep: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tgt.Name, err)
			}
			if res == nil {
				continue // target lacks operations this workload needs
			}
			pairs++
			t.Run(tgt.Name+"/"+name, func(t *testing.T) {
				if res.Div != nil {
					t.Errorf("pipeline and reference models diverge: %v", res.Div)
				}
			})
		}
	}
	// The matrix must actually cover the suite: six targets, most
	// workloads schedulable on each.
	if pairs < 60 {
		t.Errorf("only %d workload x target pairs ran; the agreement matrix collapsed", pairs)
	}
}
