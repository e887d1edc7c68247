package cosim

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

func allTargets() []config.Target {
	return []config.Target{
		config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD(),
	}
}

// TestConformanceCampaign is the conformance gate: every shipped
// workload and a seeded population of generated programs, co-simulated
// on all four paper targets, must show zero divergences between the
// pipeline model and the architectural reference model.
func TestConformanceCampaign(t *testing.T) {
	cfg := CampaignConfig{}
	if testing.Short() {
		cfg.Seeds = 50
	}
	c, err := RunCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Divergent {
		t.Errorf("%s on %s: %s", r.Name, r.Target, r.Div)
	}
	if c.Workloads == 0 || c.Skipped == 0 {
		t.Errorf("campaign ran %d workload pairs with %d skips; want both nonzero "+
			"(TM3270-only workloads must skip the TM3260 targets)", c.Workloads, c.Skipped)
	}
	wantGen := 4 * 500
	if testing.Short() {
		wantGen = 4 * 50
	}
	if c.Generated != wantGen {
		t.Errorf("campaign ran %d generated programs, want %d", c.Generated, wantGen)
	}
	if c.Instrs == 0 {
		t.Error("campaign retired zero instructions")
	}
}

// TestTrapAgreementCanon pins the one real divergence the first full
// sweep surfaced: both models reject a prefetch MMIO access on a
// target without the region prefetcher, but under different trap names
// ("mmio-misuse" in the pipeline model, "mmio" in the reference model).
// canonTrap must map them to the same canonical name so a same-cause
// rejection counts as agreement.
func TestTrapAgreementCanon(t *testing.T) {
	p := workloads.Small()
	for _, name := range []string{"blockwalk_pf", "upconv_pf"} {
		w, err := workloads.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkload(w, config.ConfigA(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("%s did not schedule on the TM3260 baseline", name)
		}
		if res.Div != nil {
			t.Errorf("%s on ConfigA: %s (mmio trap canonicalization regressed)", name, res.Div)
		}
	}
}

// TestLockstepLocalization checks the harness actually localizes a
// divergence. The pipeline model executes the scheduled code while the
// reference model executes the decoded binary, so flipping a bit in
// the encoded image (leaving the artifact's Code untouched) guarantees
// the models run different programs; the harness must notice and the
// lockstep rerun must attach instruction context.
func TestLockstepLocalization(t *testing.T) {
	w, err := workloads.ByName("memset", workloads.Small())
	if err != nil {
		t.Fatal(err)
	}
	target := config.ConfigD()
	art, err := runner.CompileWorkload(w, target)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	seen := 0
	for try := 0; try < 200; try++ {
		img := make([]byte, len(art.Enc.Bytes))
		copy(img, art.Enc.Bytes)
		bit := rng.Intn(len(img) * 8)
		img[bit/8] ^= 1 << (bit % 8)

		enc := *art.Enc
		enc.Bytes = img
		mutArt := &runner.Artifact{Code: art.Code, RegMap: art.RegMap, Enc: &enc}

		image := mem.NewFunc()
		if w.Init != nil {
			if err := w.Init(image); err != nil {
				t.Fatal(err)
			}
		}
		args := make(map[isa.Reg]uint32, len(w.Args))
		for v, val := range w.Args {
			args[art.RegMap.Reg(v)] = val
		}
		r := &run{name: "memset-mut", art: mutArt, t: target, init: image, args: args}
		res, err := r.execute(Options{})
		if err != nil {
			continue // mutant image no longer decodes: not a co-sim case
		}
		if res.Div == nil {
			continue // flip landed in dead or semantically inert bits
		}
		seen++
		switch res.Div.Kind {
		case "lockstep-flow", "lockstep-reg":
			if res.Div.PC == 0 {
				t.Errorf("lockstep divergence without a PC: %s", res.Div)
			}
		case "trap", "instrs", "reg", "mem", "mmio":
			// Final-state kinds survive when the lockstep rerun sees
			// agreement at every boundary (e.g. a mutated store address).
		default:
			t.Errorf("unexpected divergence kind %q", res.Div.Kind)
		}
		if seen >= 5 {
			return
		}
	}
	if seen == 0 {
		t.Fatal("200 bit flips produced no observable divergence; the harness is blind")
	}
}

// TestStrictModesAgree co-simulates with strict memory armed in both
// models: the pipeline model's per-byte write-validity trap and the
// reference model's undefined-read trap must agree — both fire at the
// same cause, or neither fires. Workloads exercise the clean side
// (their inits define every byte the kernels read); generated programs
// start from an empty image, so their loads hit undefined bytes and
// the trap side must agree too.
func TestStrictModesAgree(t *testing.T) {
	p := workloads.Small()
	for _, name := range []string{"memset", "memcpy", "filter", "rgb2yuv", "mp3_synth"} {
		w, err := workloads.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range allTargets() {
			res, err := RunWorkload(w, tgt, Options{StrictMem: true})
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				continue // target cannot schedule the workload
			}
			if res.Div != nil {
				t.Errorf("%s on %s under strict: %s", name, tgt.Name, res.Div)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seed := rng.Int63()
		res, err := RunGenerated(seed, config.ConfigD(), 60, Options{StrictMem: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Div != nil {
			t.Errorf("gen seed %d under strict: %s", seed, res.Div)
		}
	}
}

// TestStrictUndefinedReadAgreement pins the non-vacuous case: a kernel
// reading one word past its initialized input. The pipeline model must
// trap (per-byte validity — the word lies on an already-written page,
// so the old page-granular check would have passed it), and the
// co-simulation must still count the run as agreement because the
// reference model traps for the same canonical reason.
func TestStrictUndefinedReadAgreement(t *testing.T) {
	b := prog.NewBuilder("strict_cosim")
	base, v := b.Reg(), b.Reg()
	b.Ld32D(v, base, 4) // bytes 4..7 of the buffer: never written
	b.St32D(base, 8, v)
	p := b.MustProgram()

	tgt := config.ConfigD()
	art, err := runner.Compile(p, tgt)
	if err != nil {
		t.Fatal(err)
	}
	init := mem.NewFunc()
	init.Store(0x2000, 4, 0xdeadbeef) // defines bytes 0..3 only
	args := map[isa.Reg]uint32{art.RegMap.Reg(base): 0x2000}
	r := &run{name: "strict_cosim", art: art, t: tgt, init: init, args: args}

	// The pipeline model alone must raise the strict trap.
	sim := r.newSim()
	sim.StrictMem = true
	for reg, val := range args {
		sim.SetPhysReg(reg, val)
	}
	runErr := sim.RunContext(context.Background())
	var trap *tmsim.TrapError
	if !errors.As(runErr, &trap) || trap.Kind != tmsim.TrapUnmappedLoad {
		t.Fatalf("pipeline model under strict returned %v, want TrapUnmappedLoad", runErr)
	}
	if trap.Addr != 0x2004 {
		t.Errorf("trap addr = %#x, want 0x2004", trap.Addr)
	}

	// And the harness must see agreement, not a trap divergence.
	res, err := r.execute(Options{StrictMem: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Div != nil {
		t.Errorf("strict modes disagree: %s", res.Div)
	}

	// Without strict, both models read zeroes and finish cleanly.
	res, err = r.execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Div != nil {
		t.Errorf("non-strict run diverged: %s", res.Div)
	}
}

// TestFinalMemDivergence: a final-image difference is reported as a
// "mem" divergence at the lowest differing address, whichever page the
// images' page lists name first.
func TestFinalMemDivergence(t *testing.T) {
	b := prog.NewBuilder("mem_div")
	base, v := b.Reg(), b.Reg()
	b.St32D(base, 8, v)
	p := b.MustProgram()
	tgt := config.ConfigD()
	art, err := runner.Compile(p, tgt)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{name: "mem_div", art: art, t: tgt, init: mem.NewFunc(),
		args: map[isa.Reg]uint32{art.RegMap.Reg(base): 0x2000, art.RegMap.Reg(v): 0x01020304}}
	dec, err := encode.Decode(art.Enc.Bytes, tmsim.CodeBase, len(art.Code.Instrs))
	if err != nil {
		t.Fatal(err)
	}
	sim, ref := r.newPair(dec, Options{})
	simErr := sim.RunContext(context.Background())
	refTrap := ref.Run()
	if d := diffFinal(sim, simErr, ref, refTrap, &tgt); d != nil {
		t.Fatalf("clean run diverged: %s", d)
	}
	ref.Mem.SetByte(0x7004, 1)
	ref.Mem.SetByte(0x200a, 9) // inside the stored word, on the lower page
	d := diffFinal(sim, simErr, ref, refTrap, &tgt)
	want := "byte 0x200a = 0x3 (pipeline) vs 0x9 (reference)"
	if d == nil || d.Kind != "mem" || d.Detail != want {
		t.Fatalf("divergence = %v, want mem: %s", d, want)
	}
}

// FuzzCosim drives the differential harness from the fuzzer: every
// seed/size/target triple generates a legal program that must co-
// simulate divergence-free.
func FuzzCosim(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed, uint8(64), uint8(seed%4))
	}
	targets := allTargets()
	f.Fuzz(func(t *testing.T, seed int64, ops uint8, tgt uint8) {
		target := targets[int(tgt)%len(targets)]
		genOps := 16 + int(ops)%112
		res, err := RunGenerated(seed, target, genOps, Options{})
		if err != nil {
			t.Fatalf("seed %d ops %d on %s: %v", seed, genOps, target.Name, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d ops %d on %s diverged: %s", seed, genOps, target.Name, res.Div)
		}
	})
}

// TestStoredDivergenceRoundTrip: a divergent unit's campaign record
// rebuilds the exact report line of the live result, so a resumed
// campaign prints what the original run would have.
func TestStoredDivergenceRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		u   campaign.Unit
		res *Result
	}{
		{campaign.Unit{Kind: KindGenerated, Seed: 7, Target: "D"},
			&Result{Name: "gen7", Target: "D", Instrs: 40,
				Div: &Divergence{Kind: "lockstep-reg", Detail: "r5 = 0x1, ref 0x2", Issue: 3, Cycle: 9, PC: 0x1000040}}},
		{campaign.Unit{Kind: KindWorkload, Name: "memcpy", Target: "A"},
			&Result{Name: "memcpy", Target: "A", Instrs: 12,
				Div: &Divergence{Kind: "mem", Detail: "byte 0x2000 = 0x1, ref 0x0"}}},
	} {
		rec := storedResult(tc.res)
		if !rec.Bad {
			t.Fatalf("%s: divergent record not marked bad", tc.res.Name)
		}
		got := fromStored(tc.u, rec)
		if got.Name != tc.res.Name || got.Target != tc.res.Target || got.Instrs != tc.res.Instrs ||
			got.Div.String() != tc.res.Div.String() {
			t.Errorf("round trip %+v %q, want %+v %q", got, got.Div, tc.res, tc.res.Div)
		}
		c := &Campaign{Divergent: []*Result{got}}
		var b strings.Builder
		c.PrintSummary(&b)
		if want := tc.res.Name + " on " + tc.res.Target + ": " + tc.res.Div.String(); !strings.Contains(b.String(), want) {
			t.Errorf("summary %q lacks %q", b.String(), want)
		}
	}
	var b strings.Builder
	(&Campaign{}).PrintSummary(&b)
	if !strings.Contains(b.String(), "zero divergences") {
		t.Errorf("clean summary %q", b.String())
	}
}

// TestCampaignSpec: the store fingerprint follows the params, ignores
// the seed count, and keeps the exact values stores were written
// under, so they still resume.
func TestCampaignSpec(t *testing.T) {
	base := CampaignConfig{Seeds: 10}
	more := CampaignConfig{Seeds: 20}
	full := workloads.Full()
	big := CampaignConfig{Params: &full}
	if base.Spec() != more.Spec() {
		t.Error("seed count changed the spec")
	}
	for _, c := range []struct{ got, want string }{
		{base.Spec(), "cosim params=e76b1a90b68a strict=false"},
		{big.Spec(), "cosim params=502aacb59269 strict=false"},
	} {
		if c.got != c.want {
			t.Errorf("spec = %q, want %q", c.got, c.want)
		}
	}
}
