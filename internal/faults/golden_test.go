package faults

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests that run")

// TestMutantGolden pins the classification of every unit of the
// default mutant × machine-seed matrix: the store fingerprint on the
// first line, then one line per unit in UnitMatrix order with its
// status, retired instructions and detail. Machine seed 0 of the
// matrix is the single-initial-state static and differential
// campaign, so this file is also the reference for those tables.
// Rerun with -update only after a deliberate change to the mutation,
// classification or execution model.
func TestMutantGolden(t *testing.T) {
	var cfg MatrixConfig
	var b strings.Builder
	fmt.Fprintln(&b, cfg.Spec())
	r := newMatrixRunner()
	for _, u := range cfg.UnitMatrix() {
		res, err := r.Run(context.Background(), u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		fmt.Fprintf(&b, "%s %s %d", u, res.Status, res.Instrs)
		if res.Detail != "" {
			fmt.Fprintf(&b, " %s", res.Detail)
		}
		b.WriteByte('\n')
	}
	checkGolden(t, "mutants.golden", b.String())
}

// TestCampaignGolden pins the fault campaign as tm3270bench -faults
// prints it: one classification line per seeded run, then the
// summary line. Rerun with -update only after a deliberate change to
// an injector, the classification or the execution model.
func TestCampaignGolden(t *testing.T) {
	var b strings.Builder
	res, err := RunCampaign(context.Background(), &b)
	if err != nil {
		t.Fatal(err)
	}
	res.PrintSummary(&b)
	checkGolden(t, "campaign.golden", b.String())
}

// checkGolden compares got against testdata/name (rewriting it first
// under -update) and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s changed at line %d (rerun with -update if deliberate):\n got: %s\nwant: %s",
					name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s changed: %d lines, golden has %d", name, len(gl), len(wl))
	}
}
