package runner_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests that run")

// TestStaticGolden pins the static verifier's complete output on every
// shipped workload at Full() sizes on configs A and D: each pair's
// diagnostics and its whole cycle bound (decomposition, every loop and
// every note). Any change to the abstract domains, the fixpoints or the
// WCET model that moves a single diagnostic or cycle shows up here;
// rerun with -update only after a deliberate analysis change.
func TestStaticGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, tgt := range []config.Target{config.ConfigA(), config.ConfigD()} {
			fmt.Fprintf(&b, "== %s on %s\n", name, tgt.Name)
			w, err := workloads.ByName(name, workloads.Full())
			if err != nil {
				t.Fatal(err)
			}
			art, err := runner.CompileWorkload(w, tgt)
			var serr *runner.ScheduleError
			if errors.As(err, &serr) {
				b.WriteString("skipped: not schedulable\n")
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			opts := art.VerifyOptions(w)
			rep, err := art.VerifyStatic(&tgt, opts)
			if rep == nil {
				t.Fatalf("%s on %s: %v", name, tgt.Name, err)
			}
			rep.Write(&b)
			cb, err := art.CycleBound(&tgt, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tgt.Name, err)
			}
			writeCycleBound(&b, cb)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "static.golden")
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
		t.Errorf("static verifier output changed (rerun with -update if deliberate):\n%s",
			firstDiff(got, string(want)))
	}
}

func writeCycleBound(b *strings.Builder, cb *binverify.CycleBound) {
	fmt.Fprintf(b, "bound: bounded=%v cycles=%d issue=%d fetch=%d data=%d\n",
		cb.Bounded, cb.Cycles, cb.Issue, cb.Fetch, cb.Data)
	for _, l := range cb.Loops {
		fmt.Fprintf(b, "loop: pc=%#x header=%d bound=%d source=%s\n",
			l.HeaderPC, l.Header, l.Bound, l.Source)
	}
	for _, n := range cb.Notes {
		fmt.Fprintf(b, "note: %s\n", n)
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "renderings differ"
}

// staticBenchArtifact compiles mpeg2_super at Full() sizes for config
// D, the largest input the verifier sees among the shipped workloads.
func staticBenchArtifact(b *testing.B) (*runner.Artifact, *config.Target, *binverify.Options) {
	b.Helper()
	w, err := workloads.ByName("mpeg2_super", workloads.Full())
	if err != nil {
		b.Fatal(err)
	}
	tgt := config.ConfigD()
	art, err := runner.CompileWorkload(w, tgt)
	if err != nil {
		b.Fatal(err)
	}
	return art, &tgt, art.VerifyOptions(w)
}

// BenchmarkVerify measures one full static verification (decode,
// structural checks, latency dataflow, range fixpoints, loop bounds).
func BenchmarkVerify(b *testing.B) {
	art, tgt, opts := staticBenchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := art.VerifyStatic(tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCET measures one static cycle-bound computation, which
// reruns the whole analysis before applying the latency model.
func BenchmarkWCET(b *testing.B) {
	art, tgt, opts := staticBenchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := art.CycleBound(tgt, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !cb.Bounded {
			b.Fatalf("mpeg2_super on D unbounded: %v", cb.Notes)
		}
	}
}
