package tmsim_test

import (
	"context"
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

// TestRunFromBinary executes workloads from their decoded binary images
// and compares all memory effects against the directly-compiled run:
// the encoding must carry complete semantics.
func TestRunFromBinary(t *testing.T) {
	p := workloads.Small()
	tgt := config.TM3270()
	for _, name := range []string{"memcpy", "rgb2cmyk", "majority_sel", "cabac_opt_i", "mpeg2_b"} {
		w, err := workloads.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		code, err := sched.Schedule(w.Prog, tgt)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := regalloc.Allocate(w.Prog)
		if err != nil {
			t.Fatal(err)
		}

		// Direct run.
		mem1 := mem.NewFunc()
		if w.Init != nil {
			if err := w.Init(mem1); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := encode.Encode(code, rm, tmsim.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		m1 := tmsim.Load(code, rm, enc, mem1)
		for v, val := range w.Args {
			m1.SetReg(v, val)
		}
		if err := m1.RunContext(context.Background()); err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}

		// Binary round trip: encode, reassemble, run.
		img := m1.Enc
		code2, rm2, err := encode.Reassemble(img.Bytes, img.Base, len(code.Instrs), tgt)
		if err != nil {
			t.Fatalf("%s reassemble: %v", name, err)
		}
		mem2 := mem.NewFunc()
		if w.Init != nil {
			if err := w.Init(mem2); err != nil {
				t.Fatal(err)
			}
		}
		enc2, err := encode.Encode(code2, rm2, tmsim.CodeBase)
		if err != nil {
			t.Fatalf("%s machine from binary: %v", name, err)
		}
		m2 := tmsim.Load(code2, rm2, enc2, mem2)
		// Arguments land in the same physical registers the allocator
		// chose for the original run; the reassembled code's virtual
		// registers are those physical numbers.
		for v, val := range w.Args {
			m2.SetReg(prog.VReg(rm.Reg(v)), val)
		}
		if err := m2.RunContext(context.Background()); err != nil {
			t.Fatalf("%s from binary: %v", name, err)
		}

		if w.Check != nil {
			if err := w.Check(mem2); err != nil {
				t.Fatalf("%s from binary: %v", name, err)
			}
		}
		if addr, diff := mem.Diff(mem1, mem2, nil); diff {
			t.Fatalf("%s: binary run diverges from direct run at %#x", name, addr)
		}
		if m1.Stats.Instrs != m2.Stats.Instrs || m1.Stats.ExecOps != m2.Stats.ExecOps {
			t.Errorf("%s: instruction stream differs: %d/%d instrs, %d/%d ops",
				name, m1.Stats.Instrs, m2.Stats.Instrs, m1.Stats.ExecOps, m2.Stats.ExecOps)
		}
	}
}
