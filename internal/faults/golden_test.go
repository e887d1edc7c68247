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
	r := newMatrixRunner(&cfg)
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
	got := b.String()

	path := filepath.Join("testdata", "mutants.golden")
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
				t.Fatalf("mutant matrix changed at line %d (rerun with -update if deliberate):\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("mutant matrix changed: %d lines, golden has %d", len(gl), len(wl))
	}
}
