// Package tm3270 is a software model of the Philips TM3270 TriMedia
// media-processor (van de Waerdt et al., "The TM3270 Media-Processor",
// MICRO 2005): a five-issue VLIW with guarded operations, a unified
// 128-entry register file, two-slot super operations, collapsed loads
// with interpolation, CABAC entropy-decoding operations, a 128 KB data
// cache with allocate-on-write-miss byte validity, and memory-region
// hardware prefetching.
//
// The package compiles kernels written in the TriMedia operation DSL
// for a chosen processor configuration (TM3270, its TM3260 predecessor,
// or the intermediate configurations A–D of the paper's evaluation),
// executes them on a cycle-level machine model, and reports performance,
// cache, power and code-size statistics. The paper's entire evaluation
// (Tables 1–6, Figures 1–7) regenerates from these pieces; see
// cmd/tm3270bench.
//
// Execution is context-aware and instance-scoped: the run's context is
// its only wall-clock bound (context.WithTimeout), RunContext takes
// functional options (watchdog, strict memory, static verification),
// every Result carries its own machine and counters, and Batch runs
// whole workload x target matrices concurrently with a
// compile-artifact cache while keeping results byte-identical to a
// serial run.
package tm3270

import (
	"context"
	"errors"
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/power"
	"tm3270/internal/prog"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// Target is a processor configuration (frequency, pipeline, caches,
// ISA-extension availability).
type Target = config.Target

// Predefined targets.
var (
	// TM3270 is the full processor (configuration D of Figure 7).
	TM3270 = config.TM3270
	// TM3260 is the predecessor (configuration A of Figure 7).
	TM3260 = config.TM3260
	// ConfigA..ConfigD are the Figure 7 evaluation points.
	ConfigA = config.ConfigA
	ConfigB = config.ConfigB
	ConfigC = config.ConfigC
	ConfigD = config.ConfigD
)

// Workload is a runnable kernel with inputs and a self-check.
type Workload = workloads.Spec

// Memory is the byte-addressable memory image workloads run against
// (big-endian multi-byte accesses, as on the TM3270).
type Memory = mem.Func

// Params scales the built-in workloads; FullParams matches the paper's
// evaluation sizes, SmallParams keeps experiments fast.
type Params = workloads.Params

// FullParams returns the paper's evaluation sizes.
func FullParams() Params { return workloads.Full() }

// SmallParams returns reduced sizes with identical structure.
func SmallParams() Params { return workloads.Small() }

// Table5 builds the Figure 7 workload set (Table 5 of the paper).
func Table5(p Params) ([]*Workload, error) { return workloads.Table5(p) }

// Stats is the execution report of one run.
type Stats = tmsim.Stats

// Artifact is the build product of Compile: scheduled code, register
// allocation and the encoded image, immutable and shareable across any
// number of concurrent runs (see RunContext's WithArtifact).
type Artifact = runner.Artifact

// Result is the outcome of running a workload on a target. Static code
// properties live on the embedded Artifact (CodeBytes, SchedInstrs,
// OPIStatic are forwarded as methods).
type Result = runner.Result

// Loaded is a machine-ready execution handle: one compiled Artifact
// loaded against a private memory image with per-run options applied.
// It composes precompiled-artifact execution with run options:
//
//	art, _ := tm3270.Compile(p, tgt)
//	ld := tm3270.Load(art, nil, tm3270.WithWatchdog(1_000_000))
//	err := ld.RunContext(ctx)
type Loaded = runner.Loaded

// Load builds an execution handle for a precompiled artifact. A nil
// image gets a fresh empty one.
func Load(a *Artifact, image *Memory, opts ...RunOption) *Loaded {
	return runner.Load(a, image, opts...)
}

// RunOption is a functional per-run option for RunContext.
type RunOption = runner.Option

// WithWatchdog bounds the run to n issued instructions (watchdog trap).
func WithWatchdog(n int64) RunOption { return runner.WithWatchdog(n) }

// WithStrictMem traps unmapped loads and null-page stores.
func WithStrictMem(on bool) RunOption { return runner.WithStrictMem(on) }

// WithVerify statically verifies the decoded binary before execution.
func WithVerify(on bool) RunOption { return runner.WithVerify(on) }

// WithArtifact runs a precompiled artifact instead of compiling again.
func WithArtifact(a *Artifact) RunOption { return runner.WithArtifact(a) }

// Batch is the concurrent workload x target matrix executor: bounded
// parallelism, compile-artifact caching, deterministic job-ordered
// results. See internal/runner for the execution engine.
type Batch = runner.Batch

// BatchJob names one cell of a Batch matrix.
type BatchJob = runner.Job

// BatchResult pairs a BatchJob with its outcome.
type BatchResult = runner.JobResult

// ArtifactCache builds each workload spec and its compile artifact once
// per (workload, params, target); share one across Batches to stop
// identical programs from rebuilding and recompiling.
type ArtifactCache = runner.Cache

// NewArtifactCache returns an empty compile-artifact cache.
func NewArtifactCache() *ArtifactCache { return runner.NewCache() }

// BatchMatrix builds the full workload x target cross product in
// row-major order.
func BatchMatrix(names []string, targets []Target) []BatchJob {
	return runner.Matrix(names, targets)
}

// Compile schedules, register-allocates and encodes a program for a
// target, returning the machine-ready artifact.
func Compile(p *prog.Program, t Target) (*Artifact, error) {
	a, err := runner.Compile(p, t)
	if err != nil {
		return nil, fmt.Errorf("tm3270: %w", err)
	}
	return a, nil
}

// Run compiles w for t, executes it on the machine model, validates the
// outputs against the workload's reference check and returns the
// statistics. It is RunContext without cancellation or options.
func Run(w *Workload, t Target) (*Result, error) {
	return RunContext(context.Background(), w, t)
}

// RunContext runs w on t under ctx with per-run options. A canceled or
// expired context aborts the simulation cooperatively with a trap whose
// Cause unwraps to ctx.Err(). On execution failures (trap, failed
// output check) the partial Result is returned alongside the error so
// machine state stays inspectable.
func RunContext(ctx context.Context, w *Workload, t Target, opts ...RunOption) (*Result, error) {
	return runner.RunContext(ctx, w, t, opts...)
}

// Reference executes a workload on the sequential reference interpreter
// (no VLIW packing, no timing) and validates its outputs; used to vet a
// new kernel independent of any schedule.
func Reference(w *Workload) error {
	_, err := w.Reference()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, workloads.ErrInit):
		return fmt.Errorf("%s (reference): init: %w", w.Name, err)
	}
	return fmt.Errorf("%s (reference): %w", w.Name, err)
}

// Area returns the Table 4 / Figure 6 area breakdown of a target.
func Area(t Target) power.AreaReport { return power.Area(&t) }

// Power evaluates the Table 4 power model at an activity point.
func Power(a power.Activity, voltage float64) (power.PowerReport, error) {
	return power.Power(a, voltage)
}
