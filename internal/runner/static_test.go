package runner_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/progen"
	"tm3270/internal/runner"
	"tm3270/internal/sched"
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

// TestStaticGoldenProgen extends TestStaticGolden to generated
// programs: progen seeds 1–500 on configs A–D at 64 and 256 ops,
// compiled with runner.Compile and analysed with the semantic options
// and no entry contract. Their nested loops and guarded writes reach
// widening and clamp paths the shipped workloads do not. Each line is
// one sha256 per block of 50 seeds over every program's diagnostics and
// whole cycle bound; rerun with -update only after a deliberate
// analysis change.
func TestStaticGoldenProgen(t *testing.T) {
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	var b strings.Builder
	const seeds, block = 500, 50
	for _, ops := range []int{64, 256} {
		for _, tgt := range targets {
			for lo := 1; lo <= seeds; lo += block {
				h := sha256.New()
				for seed := lo; seed < lo+block; seed++ {
					fmt.Fprintf(h, "== seed %d\n", seed)
					p := progen.Generate(progen.Config{Seed: int64(seed), Target: &tgt, Ops: ops})
					art, err := runner.Compile(p, tgt)
					if err != nil {
						fmt.Fprintf(h, "error: %v\n", err)
						continue
					}
					opts := &binverify.Options{EntryDefined: []isa.Reg{}, EntryValues: map[isa.Reg]uint32{}}
					var out strings.Builder
					rep, err := art.VerifyStatic(&tgt, opts)
					if rep == nil {
						t.Fatalf("seed %d on %s: %v", seed, tgt.Name, err)
					}
					rep.Write(&out)
					cb, err := art.CycleBound(&tgt, opts)
					if err != nil {
						t.Fatalf("seed %d on %s: %v", seed, tgt.Name, err)
					}
					writeCycleBound(&out, cb)
					h.Write([]byte(out.String()))
				}
				fmt.Fprintf(&b, "progen ops=%d %s seeds=%d-%d: sha256=%x\n", ops, tgt.Name, lo, lo+block-1, h.Sum(nil))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "static_progen.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("static verifier output on generated programs changed (rerun with -update if deliberate):\n%s",
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

// TestVerifyAllocs guards the static verifier's per-run allocations and
// bytes on its largest shipped input, mpeg2_super on config D: 59,035
// allocations per run when the range passes came to share one state
// slab and the dominator pass to keep only an idom tree, 50,793 since
// the decoder carves its operations from one slab, 39,157 (5.5 MB)
// since the range fixpoint keeps one state per chain leader instead of
// one per instruction (15.6 MB before), 16,329 (2.9 MB) since the
// latency pass keeps its states at chain leaders too and the verifier
// carves every op's operands from one slab, and 9,092 (2.3 MB) since
// it carves every instruction's ops from one exactly sized slab. A
// change that brings back per-node, per-round, per-slot, per-op or
// per-operand allocations, or a per-instruction state, fails here,
// deterministically, long before it shows in a timing.
func TestVerifyAllocs(t *testing.T) {
	const measured, measuredBytes = 9092, 2317000
	w, err := workloads.ByName("mpeg2_super", workloads.Full())
	if err != nil {
		t.Fatal(err)
	}
	tgt := config.ConfigD()
	art, err := runner.CompileWorkload(w, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opts := art.VerifyOptions(w)
	verify := func() {
		if _, err := art.VerifyStatic(&tgt, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, verify)
	if limit := measured * 1.1; allocs > limit {
		t.Errorf("VerifyStatic on mpeg2_super/D: %.0f allocs per run, want at most %.0f (%d measured + 10%%)",
			allocs, limit, measured)
	}

	const runs = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		verify()
	}
	runtime.ReadMemStats(&after)
	if bytes, limit := float64(after.TotalAlloc-before.TotalAlloc)/runs, measuredBytes*1.1; bytes > limit {
		t.Errorf("VerifyStatic on mpeg2_super/D: %.0f bytes per run, want at most %.0f (%d measured + 10%%)",
			bytes, limit, measuredBytes)
	}
}

// BenchmarkSchedule measures one list scheduling of mpeg2_super at
// Full() sizes for config D: dependence graphs, priorities and the
// cycle-by-cycle issue of every block.
func BenchmarkSchedule(b *testing.B) {
	w, err := workloads.ByName("mpeg2_super", workloads.Full())
	if err != nil {
		b.Fatal(err)
	}
	tgt := config.ConfigD()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(w.Prog, tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleProgen measures one list scheduling of a 64-op
// progen program (seed 1) on config D, the block size of a generated
// conformance unit, whose memory ops all take the scan of every
// earlier one.
func BenchmarkScheduleProgen(b *testing.B) {
	tgt := config.ConfigD()
	p := progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(p, tgt); err != nil {
			b.Fatal(err)
		}
	}
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
