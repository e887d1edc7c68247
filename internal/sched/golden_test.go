package sched_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/sched"
	"tm3270/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests that run")

// dumpCode renders every scheduling decision of c as text: each
// instruction's five slots (operation, registers, second-slot flags),
// the labels, the block starts and the padding count.
func dumpCode(c *sched.Code) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: srcops=%d pad=%d blocks=%v\n", c.Name, c.Target.Name, c.SrcOps, c.PadInstrs, c.BlockStart)
	labels := make([]string, 0, len(c.Labels))
	for l := range c.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "label %s=%d\n", l, c.Labels[l])
	}
	for i := range c.Instrs {
		fmt.Fprintf(&b, "%d:", i)
		for _, s := range c.Instrs[i].Slots {
			switch {
			case s.Op == nil:
				b.WriteString(" | -")
			case s.Second:
				b.WriteString(" | ^")
			default:
				b.WriteString(" | " + s.Op.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scheduleLine schedules p for t and returns one golden line: the
// instruction count and the sha256 of the full dump, or the error.
func scheduleLine(p *prog.Program, t config.Target) string {
	c, err := sched.Schedule(p, t)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("instrs=%d pad=%d sha256=%x", len(c.Instrs), c.PadInstrs, sha256.Sum256([]byte(dumpCode(c))))
}

// TestScheduleGolden pins the scheduled code itself, not only its
// downstream effects: every registry workload on configs A–D at Small
// and Full sizes (one digest each), and progen seeds 1–500 on A–D at 64
// and 256 ops (one digest per block of 50 seeds). Any change to the
// scheduler that moves one operation by one slot or cycle shows up
// here; rerun with -update only after a deliberate scheduling change.
func TestScheduleGolden(t *testing.T) {
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	var b strings.Builder
	for _, size := range []struct {
		name string
		p    workloads.Params
	}{{"small", workloads.Small()}, {"full", workloads.Full()}} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, size.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, tgt := range targets {
				fmt.Fprintf(&b, "%s %s %s: %s\n", name, tgt.Name, size.name, scheduleLine(w.Prog, tgt))
			}
		}
	}
	const seeds, block = 500, 50
	for _, ops := range []int{64, 256} {
		for _, tgt := range targets {
			for lo := 1; lo <= seeds; lo += block {
				h := sha256.New()
				for seed := lo; seed < lo+block; seed++ {
					p := progen.Generate(progen.Config{Seed: int64(seed), Target: &tgt, Ops: ops})
					fmt.Fprintf(h, "%d %s\n", seed, scheduleLine(p, tgt))
				}
				fmt.Fprintf(&b, "progen ops=%d %s seeds=%d-%d: sha256=%x\n", ops, tgt.Name, lo, lo+block-1, h.Sum(nil))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "schedule.golden")
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
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("scheduled code changed (rerun with -update if deliberate):\nline %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("scheduled code changed: %d lines, want %d", len(g), len(w))
	}
}
