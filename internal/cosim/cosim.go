// Package cosim is the differential conformance harness: it runs the
// same encoded binary through the cycle-level pipeline model (tmsim)
// and the unpipelined architectural reference model (refmodel) and
// diffs the architecturally visible outcome — trap, retired
// instruction count, final register file, final memory image and the
// prefetch MMIO bank. On a mismatch it reruns both models in lockstep
// to pin the first-divergent instruction with PC and cycle context.
//
// Inputs come from two sources: every shipped workload (real kernels
// with memory images and self-checks) and the seeded random legal
// programs of internal/progen (ISA-wide coverage the kernels don't
// reach). A campaign sweeps both across all four A–D targets.
package cosim

import (
	"context"
	"errors"
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/progen"
	"tm3270/internal/refmodel"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// Options tunes one co-simulated run.
type Options struct {
	// MaxInstrs bounds both models (0 = the models' default watchdog).
	MaxInstrs int64
	// NoLockstep skips the lockstep rerun after a final-state mismatch
	// (the campaign uses it to keep bulk sweeps cheap; divergences are
	// re-examined individually).
	NoLockstep bool
	// StrictMem arms strict memory in both models: the pipeline model's
	// per-byte write-validity trap (TrapUnmappedLoad) and the reference
	// model's TrapUndefinedRead, which canonTrap maps onto the same
	// name — so the run agrees exactly when both models trap the same
	// way, or neither does.
	StrictMem bool
	// Lockstep diffs intermediate state in the bulk pass itself: the
	// run executes once with the per-instruction hook armed, checking
	// the full register file at every instruction boundary and the
	// final state afterwards. It catches transient divergences that
	// cancel out before the end of the program, at roughly the cost of
	// the hook per instruction — campaigns sample-gate it.
	Lockstep bool
}

// Divergence describes the first observed disagreement between the two
// models.
type Divergence struct {
	// Kind: "trap", "instrs", "reg", "mem", "mmio" from the final-state
	// diff; "lockstep-flow" or "lockstep-reg" when the lockstep rerun
	// localized the first divergent instruction boundary.
	Kind   string
	Detail string
	Issue  int64  // instruction boundary (lockstep kinds)
	Cycle  int64  // pipeline-model cycle at the boundary (lockstep kinds)
	PC     uint32 // instruction byte address (lockstep kinds)
}

func (d *Divergence) String() string {
	s := d.Kind + ": " + d.Detail
	if (d.Kind == "lockstep-flow" || d.Kind == "lockstep-reg") &&
		(d.Issue != 0 || d.Cycle != 0 || d.PC != 0) {
		s += fmt.Sprintf(" (issue %d, cycle %d, pc %#x)", d.Issue, d.Cycle, d.PC)
	}
	return s
}

// Result is the outcome of one co-simulated program.
type Result struct {
	Name   string
	Target string
	Instrs int64 // instructions retired by the pipeline model
	Div    *Divergence
}

// canonTrap maps both models' trap taxonomies onto shared names so that
// "both models rejected the program for the same reason" counts as
// agreement.
func canonTrap(simErr error, refTrap *refmodel.Trap) (string, string, bool) {
	sim := "none"
	if simErr != nil {
		var te *tmsim.TrapError
		if errors.As(simErr, &te) {
			switch te.Kind {
			case tmsim.TrapMMIO:
				sim = "mmio"
			case tmsim.TrapUnknownLabel:
				sim = "bad-jump-target"
			case tmsim.TrapUnmappedLoad:
				sim = "strict-load"
			case tmsim.TrapUnmappedStore:
				sim = "null-store"
			default:
				sim = te.Kind.String()
			}
		} else {
			sim = "error: " + simErr.Error()
		}
	}
	ref := "none"
	if refTrap != nil {
		switch refTrap.Kind {
		case refmodel.TrapUndefinedRead:
			ref = "strict-load"
		default:
			ref = refTrap.Kind.String()
		}
	}
	return sim, ref, sim == ref
}

// copyImage seeds the reference model's memory with the pipeline
// model's initial image, preserving per-byte write validity: only
// bytes the init actually wrote become defined, so both models' strict
// modes see an identical validity map.
func copyImage(f *mem.Func) *refmodel.Mem {
	m := refmodel.NewMem()
	for _, pa := range f.PageAddrs() {
		for i := uint32(0); i < 1<<12; i++ {
			if f.Defined(pa+i, 1) {
				m.SetByte(pa+i, f.ByteAt(pa+i))
			}
		}
	}
	return m
}

// run is one fully-prepared co-simulation: compiled artifact, initial
// image and entry arguments.
type run struct {
	name string
	art  *runner.Artifact
	t    config.Target
	init *mem.Func // initial image (nil = empty)
	args map[isa.Reg]uint32
}

func (r *run) newSim() *tmsim.Machine {
	var image *mem.Func
	if r.init != nil {
		image = r.init.Clone()
	}
	return runner.Load(r.art, image).Machine
}

// newPair builds a fresh (pipeline, reference) machine pair over the
// decoded stream with the run's options and entry arguments applied.
func (r *run) newPair(dec []encode.DecInstr, opts Options) (*tmsim.Machine, *refmodel.Machine) {
	sim := r.newSim()
	refImage := refmodel.NewMem()
	if r.init != nil {
		refImage = copyImage(r.init)
	}
	ref := refmodel.New(dec, r.t, refImage)
	sim.MaxInstrs, ref.MaxInstrs = opts.MaxInstrs, opts.MaxInstrs
	sim.StrictMem, ref.StrictMem = opts.StrictMem, opts.StrictMem
	for reg, v := range r.args {
		sim.SetPhysReg(reg, v)
		ref.SetReg(reg, v)
	}
	return sim, ref
}

func (r *run) execute(opts Options) (*Result, error) {
	res := &Result{Name: r.name, Target: r.t.Name}

	dec, err := encode.Decode(r.art.Enc.Bytes, tmsim.CodeBase, len(r.art.Code.Instrs))
	if err != nil {
		return nil, fmt.Errorf("%s on %s: image does not decode: %w", r.name, r.t.Name, err)
	}

	if opts.Lockstep {
		// Single-pass intermediate-state diffing: the per-instruction
		// hook checks the register file at every boundary while the run
		// proceeds, then the final state is diffed as usual. The
		// reference model is run to completion first — stepping it the
		// rest of the way is exactly what its own Run loop would do.
		sim, ref := r.newPair(dec, opts)
		div, simErr := lockstepRun(sim, ref, dec)
		refTrap := ref.Run()
		res.Instrs = sim.Stats.Instrs
		if div == nil {
			div = diffFinal(sim, simErr, ref, refTrap, &r.t)
		}
		res.Div = div
		return res, nil
	}

	sim, ref := r.newPair(dec, opts)
	simErr := sim.RunContext(context.Background())
	refTrap := ref.Run()
	res.Instrs = sim.Stats.Instrs

	if div := diffFinal(sim, simErr, ref, refTrap, &r.t); div != nil {
		res.Div = div
		if !opts.NoLockstep {
			if ld := r.lockstep(dec, opts); ld != nil {
				res.Div = ld
			}
		}
	}
	return res, nil
}

// diffFinal compares the architecturally visible end state of both
// models and returns the first difference found.
func diffFinal(sim *tmsim.Machine, simErr error, ref *refmodel.Machine,
	refTrap *refmodel.Trap, t *config.Target) *Divergence {
	simName, refName, same := canonTrap(simErr, refTrap)
	if !same {
		return &Divergence{Kind: "trap",
			Detail: fmt.Sprintf("pipeline model: %s, reference model: %s", simName, refName)}
	}
	if simErr != nil {
		// Both models rejected the program for the same reason; their
		// partial state at the fault is not architecturally defined.
		return nil
	}
	if sim.Stats.Instrs != ref.Issue() {
		return &Divergence{Kind: "instrs",
			Detail: fmt.Sprintf("pipeline model retired %d instructions, reference model %d",
				sim.Stats.Instrs, ref.Issue())}
	}
	simRegs, refRegs := sim.RegSnapshot(), ref.Regs()
	for i := range simRegs {
		if simRegs[i] != refRegs[i] {
			return &Divergence{Kind: "reg",
				Detail: fmt.Sprintf("r%d = %#x (pipeline) vs %#x (reference)",
					i, simRegs[i], refRegs[i])}
		}
	}
	if a, diff := mem.Diff(sim.Mem, ref.Mem, nil); diff {
		return &Divergence{Kind: "mem",
			Detail: fmt.Sprintf("byte %#x = %#x (pipeline) vs %#x (reference)",
				a, sim.Mem.ByteAt(a), ref.Mem.ByteAt(a))}
	}
	if t.HasRegionPrefetch {
		refBank := ref.MMIORegs()
		for n := 0; n < prefetch.NumRegions; n++ {
			r := sim.PF.Regions[n]
			simBank := [3]uint32{r.Start, r.End, r.Stride}
			if simBank != refBank[n] {
				return &Divergence{Kind: "mmio",
					Detail: fmt.Sprintf("prefetch region %d = %v (pipeline) vs %v (reference)",
						n, simBank, refBank[n])}
			}
		}
	}
	return nil
}

// lockstep reruns both models instruction by instruction to localize
// the first divergent boundary. It returns nil when the rerun sees no
// boundary-level divergence (the final-state diff stands on its own).
func (r *run) lockstep(dec []encode.DecInstr, opts Options) *Divergence {
	sim, ref := r.newPair(dec, opts)
	div, _ := lockstepRun(sim, ref, dec)
	return div
}

// lockstepRun drives the pipeline model with the per-instruction hook
// armed, stepping the reference model alongside and diffing the full
// register file at every instruction boundary. It returns the first
// boundary divergence (nil if none) and the pipeline model's run
// error. The reference model is left wherever the pipeline model
// stopped feeding it.
func lockstepRun(sim *tmsim.Machine, ref *refmodel.Machine, dec []encode.DecInstr) (*Divergence, error) {
	var div *Divergence
	sim.InstrHook = func(cycle, issue int64, idx int) {
		if div != nil {
			return
		}
		pc := dec[idx].Addr
		if ref.Done() || ref.Issue() != issue || ref.Index() != idx {
			div = &Divergence{Kind: "lockstep-flow", Issue: issue, Cycle: cycle, PC: pc,
				Detail: fmt.Sprintf("pipeline model at instruction %d (issue %d), reference model at %d (issue %d, done=%v)",
					idx, issue, ref.Index(), ref.Issue(), ref.Done())}
			return
		}
		ref.CommitDue()
		simRegs, refRegs := sim.RegSnapshot(), ref.Regs()
		for i := range simRegs {
			if simRegs[i] != refRegs[i] {
				div = &Divergence{Kind: "lockstep-reg", Issue: issue, Cycle: cycle, PC: pc,
					Detail: fmt.Sprintf("r%d = %#x (pipeline) vs %#x (reference) before instruction %d",
						i, simRegs[i], refRegs[i], idx)}
				return
			}
		}
		ref.Step()
	}
	err := sim.RunContext(context.Background())
	return div, err
}

// RunWorkload co-simulates one workload on one target. A target that
// cannot schedule the workload (TM3260 vs TM3270-only ops) returns
// (nil, nil) — a skip, not a failure.
func RunWorkload(w *workloads.Spec, t config.Target, opts Options) (*Result, error) {
	art, err := runner.CompileWorkload(w, t)
	if err != nil {
		var se *runner.ScheduleError
		if errors.As(err, &se) {
			return nil, nil
		}
		return nil, err
	}
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, fmt.Errorf("%s: init: %w", w.Name, err)
		}
	}
	args := make(map[isa.Reg]uint32, len(w.Args))
	for v, val := range w.Args {
		args[art.RegMap.Reg(v)] = val
	}
	r := &run{name: w.Name, art: art, t: t, init: image, args: args}
	return r.execute(opts)
}

// RunGenerated co-simulates one progen program on one target, starting
// from an empty memory image.
func RunGenerated(seed int64, t config.Target, genOps int, opts Options) (*Result, error) {
	p := progen.Generate(progen.Config{Seed: seed, Target: &t, Ops: genOps})
	art, err := runner.Compile(p, t)
	if err != nil {
		return nil, fmt.Errorf("gen seed %d on %s: %w", seed, t.Name, err)
	}
	r := &run{name: fmt.Sprintf("gen%d", seed), art: art, t: t}
	return r.execute(opts)
}
