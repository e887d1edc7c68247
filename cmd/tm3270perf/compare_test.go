package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tmsim.mips", Unit: "Minstr/s", Better: "higher"}
	exact := metricDef{Name: "sim.cycles", Unit: "count", Better: "lower", Exact: true}
	parent := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"every pair 20% faster", lower, parent, scale(parent, 0.8), verdictBetter},
		{"every pair 20% slower", lower, parent, scale(parent, 1.2), verdictWorse},
		{"within the bound", lower, parent, scale(parent, 1.05), verdictUnchanged},
		{"identical", lower, parent, parent, verdictUnchanged},
		{"8 of 10 pairs won is not a gain", lower, parent,
			[]float64{9.0, 9.1, 8.9, 9.0, 9.0, 9.0, 9.1, 8.9, 10.5, 10.5}, verdictUnchanged},
		{"parent spread wider than the bound", lower,
			[]float64{8, 12, 9, 13, 8, 12, 9, 13, 10, 11}, []float64{9, 13, 12, 8, 12, 9, 11, 10, 13, 8},
			verdictUnresolved},
		{"wide spread but every change run better", lower,
			[]float64{20, 30, 25, 28, 22, 26, 21, 29, 24, 27}, []float64{5, 6, 5, 6, 5, 6, 5, 6, 5, 6},
			verdictBetter},
		{"higher is better", higher, []float64{18, 18.2, 17.9}, []float64{22, 22.1, 21.8}, verdictBetter},
		{"unbounded metric without a clear win", higher, []float64{18, 18.2, 17.9}, []float64{18.1, 18.0, 18.0},
			verdictUnresolved},
		{"unbounded metric clearly lost", higher, []float64{18, 18.2, 17.9}, []float64{12, 12.1, 11.9},
			verdictWorse},
		{"exact and equal", exact, []float64{136884000, 136884000}, []float64{136884000, 136884000}, verdictUnchanged},
		{"exact and one cycle more", exact, []float64{136884000, 136884000}, []float64{136884001, 136884001}, verdictWorse},
		{"exact and fewer cycles", exact, []float64{100, 100}, []float64{99, 99}, verdictBetter},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (delta %+.3f, wins %d/%d), want %s",
				c.name, got.Verdict, got.Delta, got.Wins, got.Pairs, c.want)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	run := func(workload string, pass float64) *record {
		return &record{Schema: schema, Workload: workload, Correct: true, Attempted: 1,
			Metrics: map[string]reading{"pass_s": {Value: pass, Unit: "s"}, "sim_cycles": {Value: 5, Unit: "cycles"}}}
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for i := 0; i < 10; i++ {
		for _, w := range []string{"suite-full", "lint-all"} {
			if err := appendRecord(a, run(w, 10+float64(i%3)*0.01)); err != nil {
				t.Fatal(err)
			}
		}
		if err := appendRecord(b, run("suite-full", 7+float64(i%3)*0.01)); err != nil {
			t.Fatal(err)
		}
	}
	var out, errs bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errs); code != 0 {
		t.Fatalf("compare exited %d: %s%s", code, out.String(), errs.String())
	}
	text := out.String()
	if !strings.Contains(text, "suite-full") || strings.Contains(text, "lint-all") {
		t.Errorf("compare should report only the shared workload:\n%s", text)
	}
	for _, want := range []string{"pass_s", "better", "sim_cycles", "unchanged"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	// Swapping the sides turns the gain into a regression: exit 1.
	if code := compareMain([]string{b, a}, &out, &errs); code != 1 {
		t.Errorf("compare of a regression exited %d, want 1", code)
	}
	if err := os.WriteFile(a, []byte("{\"schema\":\"other\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}, &out, &errs); code != 2 {
		t.Errorf("compare of a foreign file exited %d, want 2", code)
	}
}
