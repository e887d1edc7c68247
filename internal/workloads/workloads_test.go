package workloads_test

import (
	"context"
	"errors"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// mustBuild unwraps a fallible workload constructor:
// mustBuild(t)(workloads.Mpeg2A(p)).
func mustBuild(t *testing.T) func(*workloads.Spec, error) *workloads.Spec {
	return func(w *workloads.Spec, err error) *workloads.Spec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

// mustTable5 builds the Figure 7 set.
func mustTable5(t *testing.T, p workloads.Params) []*workloads.Spec {
	t.Helper()
	set, err := workloads.Table5(p)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// runOn compiles and executes a workload on the machine model for a
// target and validates its output with the workload's own check.
func runOn(t testing.TB, w *workloads.Spec, tgt config.Target) *tmsim.Machine {
	t.Helper()
	code, err := sched.Schedule(w.Prog, tgt)
	if err != nil {
		t.Fatalf("%s on %s: schedule: %v", w.Name, tgt.Name, err)
	}
	rm, err := regalloc.Allocate(w.Prog)
	if err != nil {
		t.Fatalf("%s: regalloc: %v", w.Name, err)
	}
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			t.Fatalf("%s: init: %v", w.Name, err)
		}
	}
	enc, err := encode.Encode(code, rm, tmsim.CodeBase)
	if err != nil {
		t.Fatalf("%s: machine: %v", w.Name, err)
	}
	m := tmsim.Load(code, rm, enc, image)
	for v, val := range w.Args {
		m.SetReg(v, val)
	}
	if err := m.RunContext(context.Background()); err != nil {
		t.Fatalf("%s on %s: run: %v", w.Name, tgt.Name, err)
	}
	if err := w.Check(image); err != nil {
		t.Fatalf("%s on %s: %v", w.Name, tgt.Name, err)
	}
	return m
}

// runReference executes a workload on the sequential interpreter.
func runReference(t *testing.T, w *workloads.Spec) {
	t.Helper()
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			t.Fatalf("%s: init: %v", w.Name, err)
		}
	}
	in := prog.NewInterp(w.Prog, image)
	in.MaxOps = 500_000_000
	for v, val := range w.Args {
		in.SetReg(v, val)
	}
	if err := in.Run(); err != nil {
		t.Fatalf("%s reference: %v", w.Name, err)
	}
	if err := w.Check(image); err != nil {
		t.Fatalf("%s reference: %v", w.Name, err)
	}
}

// TestTable5ReferenceSemantics vets every Figure 7 kernel against its
// pure-Go reference under sequential semantics.
func TestTable5ReferenceSemantics(t *testing.T) {
	for _, w := range mustTable5(t, workloads.Small()) {
		w := w
		t.Run(w.Name, func(t *testing.T) { runReference(t, w) })
	}
}

// TestReferenceStepErrors checks that Reference tags Init and Check
// failures for errors.Is and keeps each step's own error text.
func TestReferenceStepErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		edit func(*workloads.Spec)
		step error
	}{
		{"init", func(w *workloads.Spec) { w.Init = func(*mem.Func) error { return boom } }, workloads.ErrInit},
		{"check", func(w *workloads.Spec) { w.Check = func(*mem.Func) error { return boom } }, workloads.ErrCheck},
	} {
		w := workloads.Memcpy(workloads.Small())
		tc.edit(w)
		image, err := w.Reference()
		if image != nil || !errors.Is(err, tc.step) || !errors.Is(err, boom) || err.Error() != "boom" {
			t.Errorf("%s: image=%v err=%v; want nil image and a %q-tagged boom", tc.name, image, err, tc.step)
		}
	}
	w := workloads.Memcpy(workloads.Small())
	if image, err := w.Reference(); err != nil || image == nil {
		t.Fatalf("memcpy reference: image=%v err=%v", image, err)
	}
}

// TestTable5OnAllConfigs runs every Figure 7 kernel on all four
// evaluation configurations of the paper.
func TestTable5OnAllConfigs(t *testing.T) {
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	for _, w := range mustTable5(t, workloads.Small()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, tgt := range targets {
				m := runOn(t, w, tgt)
				if m.Stats.Instrs == 0 || m.Stats.Cycles < m.Stats.Instrs {
					t.Errorf("%s: implausible stats %+v", tgt.Name, m.Stats)
				}
			}
		})
	}
}

// TestWorkloadsFitRegisterFile: every kernel must allocate within the
// 128-entry register file (the paper's no-spill discipline).
func TestWorkloadsFitRegisterFile(t *testing.T) {
	for _, w := range mustTable5(t, workloads.Small()) {
		if _, err := regalloc.Allocate(w.Prog); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestMemcpyTrafficPolicy pins the Section 6 memcpy explanation: under
// fetch-on-write-miss (config A) the destination lines are read from
// memory; under allocate-on-write-miss (config B) they are not, cutting
// off-chip traffic by roughly a third.
func TestMemcpyTrafficPolicy(t *testing.T) {
	p := workloads.Small()
	p.MemKB = 32 // long enough to reach the memory-bound steady state
	a := runOn(t, workloads.Memcpy(p), config.ConfigA())
	b := runOn(t, workloads.Memcpy(p), config.ConfigB())
	bytes := int64(p.MemKB * 1024)

	// A: read src + fetch dst + eventual copyback.
	if a.BIU.BytesRead < 2*bytes*9/10 {
		t.Errorf("config A read %d bytes, want ~%d (src + fetched dst)", a.BIU.BytesRead, 2*bytes)
	}
	// B: read src only.
	if b.BIU.BytesRead > bytes*11/10 {
		t.Errorf("config B read %d bytes, want ~%d (src only)", b.BIU.BytesRead, bytes)
	}
	if b.Stats.Cycles >= a.Stats.Cycles {
		t.Errorf("allocate-on-write memcpy (%d cyc) not faster than fetch-on-write (%d cyc)",
			b.Stats.Cycles, a.Stats.Cycles)
	}
}

// TestMpeg2CacheSensitivity pins the Figure 7 mpeg2 explanation: the
// disruptive stream (a) must miss more than the smooth stream (c) on
// the small-cache configurations.
func TestMpeg2CacheSensitivity(t *testing.T) {
	p := workloads.Small()
	p.Mpeg2W, p.Mpeg2H = 320, 96 // wider than the 16KB cache can hold
	tgt := config.ConfigB()
	ma := runOn(t, mustBuild(t)(workloads.Mpeg2A(p)), tgt)
	mc := runOn(t, mustBuild(t)(workloads.Mpeg2C(p)), tgt)
	missA := ma.DC.Stats.LoadMisses
	missC := mc.DC.Stats.LoadMisses
	if missA <= missC {
		t.Errorf("disruptive stream misses (%d) not above smooth stream (%d)", missA, missC)
	}
}

// TestMemsetStoresBound: memset issues two stores per instruction in
// steady state (both store slots busy).
func TestMemsetStoresBound(t *testing.T) {
	p := workloads.Small()
	m := runOn(t, workloads.Memset(p), config.ConfigD())
	if opi := m.Stats.OPI(); opi < 1.8 {
		t.Errorf("memset OPI = %.2f, expected ~2+ (dual store slots)", opi)
	}
}

// TestCABACKernels validates both Table 3 decode kernels bit-for-bit
// and pins the speedup band of the paper ([1.5, 1.7] on full fields;
// allow a wider band at test scale).
func TestCABACKernels(t *testing.T) {
	f := workloads.FieldI(4000)
	ref := workloads.CABACRef(f)
	opt := workloads.CABACOpt(f)
	runReference(t, ref)
	runReference(t, opt)

	d := config.ConfigD()
	mr := runOn(t, ref, d)
	mo := runOn(t, opt, d)
	speed := float64(mr.Stats.Instrs) / float64(mo.Stats.Instrs)
	if speed < 1.2 || speed > 2.5 {
		t.Errorf("CABAC speedup = %.2f, expected within [1.2, 2.5]", speed)
	}

	// The reference kernel also runs on the TM3260; the optimized one
	// must not schedule there.
	runOn(t, ref, config.ConfigA())
	if _, err := sched.Schedule(opt.Prog, config.ConfigA()); err == nil {
		t.Error("TM3260 accepted SUPER_CABAC operations")
	}
}

// TestCABACFieldOrdering: instructions-per-bit must rise from I to P to
// B fields (more maintenance per stream bit), as in Table 3.
func TestCABACFieldOrdering(t *testing.T) {
	d := config.ConfigD()
	perBit := func(f workloads.FieldType) float64 {
		m := runOn(t, workloads.CABACRef(f), d)
		return float64(m.Stats.Instrs) / float64(workloads.StreamBits(f))
	}
	i := perBit(workloads.FieldI(3000))
	p := perBit(workloads.FieldP(3000))
	bb := perBit(workloads.FieldB(3000))
	if !(i < p && p < bb) {
		t.Errorf("instr/bit I=%.1f P=%.1f B=%.1f, want I < P < B", i, p, bb)
	}
}

// TestMP3Synth validates the Table 4 power workload and its operating
// point (CPI must stay near 1: the working set is cache resident).
func TestMP3Synth(t *testing.T) {
	p := workloads.Small()
	p.MP3Granules = 96 // enough work to amortize the cold caches
	w := workloads.MP3Synth(p)
	runReference(t, w)
	m := runOn(t, w, config.ConfigD())
	if cpi := m.Stats.CPI(); cpi > 1.2 {
		t.Errorf("mp3_synth CPI = %.2f, expected close to 1.0", cpi)
	}
}

// TestMotionEstVariants validates all four ablation variants and pins
// the claim that the TM3270-specific features speed the kernel up.
func TestMotionEstVariants(t *testing.T) {
	mp := workloads.MEParams{W: 48, H: 32}
	d := config.ConfigD()

	ref := workloads.MotionEst(mp)
	runReference(t, ref)
	mref := runOn(t, ref, d)

	mp.UseFrac8 = true
	opt := workloads.MotionEst(mp)
	runReference(t, opt)
	mopt := runOn(t, opt, d)

	if mopt.Stats.Instrs >= mref.Stats.Instrs {
		t.Errorf("LD_FRAC8 variant executed %d instrs, reference %d — no gain",
			mopt.Stats.Instrs, mref.Stats.Instrs)
	}

	mp.Prefetch = true
	pf := workloads.MotionEst(mp)
	mpf := runOn(t, pf, d)
	if mpf.PF == nil || mpf.PF.Stats.Issued == 0 {
		t.Error("prefetch variant issued no prefetches")
	}

	// The base variant must re-compile for the TM3260; the frac8 one
	// must not.
	runOn(t, workloads.MotionEst(workloads.MEParams{W: 48, H: 32}), config.ConfigA())
	if _, err := sched.Schedule(opt.Prog, config.ConfigA()); err == nil {
		t.Error("TM3260 accepted LD_FRAC8")
	}
}

// TestVerifyAllKernels runs the independent schedule verifier over
// every registry workload on every configuration it supports.
func TestVerifyAllKernels(t *testing.T) {
	p := workloads.Small()
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range targets {
			if w.TM3270Only && !tgt.HasTM3270Ops {
				continue
			}
			code, err := sched.Schedule(w.Prog, tgt)
			if err != nil {
				t.Errorf("%s on %s: %v", name, tgt.Name, err)
				continue
			}
			if err := sched.Verify(code); err != nil {
				t.Errorf("%s on %s: %v", name, tgt.Name, err)
			}
		}
	}
}

// TestMpeg2SuperIDCT validates the SUPER_DUALIMIX texture-pipeline
// variant bit-for-bit and checks it cuts executed operations on the
// TM3270 (paper reference [13]: new operations improve the 8x8 texture
// pipeline).
func TestMpeg2SuperIDCT(t *testing.T) {
	p := workloads.Small()
	base := runOn(t, mustBuild(t)(workloads.Mpeg2B(p)), config.ConfigD())
	sup := runOn(t, mustBuild(t)(workloads.Mpeg2Super(p)), config.ConfigD())
	if sup.Stats.ExecOps >= base.Stats.ExecOps {
		t.Errorf("super variant executes %d ops, base %d: no reduction",
			sup.Stats.ExecOps, base.Stats.ExecOps)
	}
	// In this memory-staged IDCT the super lengthens the dependence
	// chain (latency 4 + combining add), so the instruction count may
	// rise somewhat even as operations drop — the honest trade-off the
	// ablation documents. Cap the regression.
	if sup.Stats.Instrs > base.Stats.Instrs*5/4 {
		t.Errorf("super variant instruction count regressed too far (%d vs %d)",
			sup.Stats.Instrs, base.Stats.Instrs)
	}
	if _, err := sched.Schedule(mustBuild(t)(workloads.Mpeg2Super(p)).Prog, config.ConfigA()); err == nil {
		t.Error("TM3260 accepted SUPER_DUALIMIX")
	}
}

// TestUpconv validates the temporal up-conversion workload and its
// prefetch benefit on a streaming-sized frame ([14]: prefetching alone
// improves performance by more than 20%... at SD scale; require a
// visible gain here).
func TestUpconv(t *testing.T) {
	p := workloads.Small()
	p.ImageW, p.ImageH = 320, 64
	runReference(t, workloads.Upconv(p, false))
	d := config.ConfigD()
	off := runOn(t, workloads.Upconv(p, false), d)
	on := runOn(t, workloads.Upconv(p, true), d)
	if on.PF == nil || on.PF.Stats.Issued == 0 {
		t.Fatal("prefetch variant issued nothing")
	}
	if on.Stats.Cycles >= off.Stats.Cycles {
		t.Errorf("prefetch did not help: %d vs %d cycles", on.Stats.Cycles, off.Stats.Cycles)
	}
	// The portable variant must also compile for the TM3260.
	runOn(t, workloads.Upconv(p, false), config.ConfigA())
}

// BenchmarkCheck times me_frac8's output check on a 352x240 frame pair
// the kernel has already run over (config D, as suite-full runs it):
// the bulk frame reads every frame checker goes through.
func BenchmarkCheck(b *testing.B) {
	w := workloads.MotionEst(workloads.MEParams{W: 352, H: 240, UseFrac8: true})
	image := runOn(b, w, config.ConfigD()).Mem
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Check(image); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegistry: every registry name is unique and builds a spec of
// exactly that name, and an unknown name is an error.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workloads.Names() {
		if seen[name] {
			t.Errorf("%s registered twice", name)
		}
		seen[name] = true
		w, err := workloads.ByName(name, workloads.Small())
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name {
			t.Errorf("ByName(%q) built a spec named %q", name, w.Name)
		}
	}
	if _, err := workloads.ByName("no_such_workload", workloads.Small()); err == nil {
		t.Error("unknown workload built")
	}
}
