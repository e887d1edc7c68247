// Package runner is the execution engine behind the public tm3270 API:
// it turns (workload, target) pairs into results, one at a time via
// RunContext or as a concurrent batch via Batch.
//
// The design is instance-scoped throughout — every run gets its own
// memory image and machine (counters, event trace and profile
// included), and workload specs and compile artifacts are immutable —
// so any number of runs may proceed concurrently without shared
// mutable state. Batch adds bounded parallelism, a cache building each
// spec and artifact once per (workload, params, target), and
// deterministic ordered aggregation: results come back in job order,
// making a parallel batch byte-identical to a serial one.
package runner

import (
	"context"
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/power"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// Options collects the per-run knobs. The zero value is a plain
// checked run; functional options (With*) adjust it.
type Options struct {
	// Watchdog bounds issued instructions (0 = simulator default).
	Watchdog int64
	// StrictMem traps unmapped loads and null-page stores.
	StrictMem bool
	// Verify gates execution on the whole-program static verifier.
	Verify bool
	// Artifact, when non-nil, skips compilation and loads the machine
	// from this precompiled build product (the cache path). It must be
	// the compilation of the run's spec, or of a spec built by the same
	// name and params: construction is deterministic, so the two match.
	Artifact *Artifact
	// Setup, when non-nil, runs against the constructed machine before
	// execution (issue tracing, event trace, profile, fault injection).
	Setup func(*tmsim.Machine)
}

// Option is one functional run option.
type Option func(*Options)

// WithWatchdog bounds the run to n issued instructions.
func WithWatchdog(n int64) Option { return func(o *Options) { o.Watchdog = n } }

// WithStrictMem traps unmapped loads and null-page stores.
func WithStrictMem(on bool) Option { return func(o *Options) { o.StrictMem = on } }

// WithVerify statically verifies the decoded binary before the first
// cycle executes and refuses the run on any error-severity diagnostic.
func WithVerify(on bool) Option { return func(o *Options) { o.Verify = on } }

// WithArtifact runs a precompiled artifact instead of compiling. The
// artifact is read-only, so any number of concurrent runs may share it
// (and the spec it was compiled from); Cache.Lookup returns the pair.
func WithArtifact(a *Artifact) Option { return func(o *Options) { o.Artifact = a } }

// WithMachineSetup registers a pre-run hook on the machine.
func WithMachineSetup(f func(*tmsim.Machine)) Option { return func(o *Options) { o.Setup = f } }

// Result is the outcome of one run.
type Result struct {
	Workload string
	Target   config.Target
	Stats    tmsim.Stats
	Machine  *tmsim.Machine
	Artifact *Artifact
}

// Seconds returns the wall-clock time of the run at the target's
// frequency.
func (r *Result) Seconds() float64 { return r.Stats.Seconds(&r.Target) }

// CodeBytes returns the encoded size of the compiled kernel.
func (r *Result) CodeBytes() int { return r.Artifact.CodeBytes() }

// SchedInstrs returns the static VLIW instruction count.
func (r *Result) SchedInstrs() int { return r.Artifact.SchedInstrs() }

// OPIStatic returns the static operation density of the schedule.
func (r *Result) OPIStatic() float64 { return r.Artifact.OPIStatic() }

// Activity extracts the power-model operating point of the run.
func (r *Result) Activity() power.Activity {
	s := &r.Stats
	a := power.Activity{}
	if s.Cycles > 0 {
		a.Utilization = float64(s.Instrs) / float64(s.Cycles)
		a.BusBytesPerCyc = float64(r.Machine.BIU.TotalBytes()) / float64(s.Cycles)
	}
	if s.Instrs > 0 {
		a.OPI = s.OPI()
		a.MemOpsPerInstr = float64(s.LoadOps+s.StoreOps) / float64(s.Instrs)
	}
	return a
}

// RunContext compiles (or loads) w for t, executes it on the machine
// model under ctx, validates the outputs against the workload's
// reference check and returns the result.
//
// When the failure happens at or after execution (a trap, a canceled
// context, a failed output check), the returned Result is still
// populated alongside the error, so diagnostics — the machine state
// (counters, event trace and profile included) and the artifact —
// remain inspectable. Failures before a machine exists (compile,
// verify, init) return a nil Result.
func RunContext(ctx context.Context, w *workloads.Spec, t config.Target, opts ...Option) (*Result, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}

	art := o.Artifact
	if art == nil {
		var err error
		art, err = CompileWorkload(w, t)
		if err != nil {
			return nil, err
		}
	}
	if o.Verify {
		if _, err := art.VerifyStatic(&t, art.VerifyOptions(w)); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", w.Name, t.Name, err)
		}
	}

	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, fmt.Errorf("%s on %s: init: %w", w.Name, t.Name, err)
		}
	}

	ld := loadWith(art, image, &o)
	m := ld.Machine
	for v, val := range w.Args {
		m.SetReg(v, val)
	}

	res := &Result{Workload: w.Name, Target: t, Machine: m, Artifact: art}
	runErr := ld.RunContext(ctx)
	res.Stats = m.Stats
	if runErr != nil {
		return res, fmt.Errorf("%s on %s: %w", w.Name, t.Name, runErr)
	}
	if w.Check != nil {
		if err := w.Check(image); err != nil {
			return res, fmt.Errorf("%s on %s: output check failed: %w", w.Name, t.Name, err)
		}
	}
	return res, nil
}
