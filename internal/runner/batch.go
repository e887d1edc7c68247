package runner

import (
	"context"
	"fmt"
	"runtime"

	"tm3270/internal/config"
	"tm3270/internal/workloads"
)

// Job names one cell of a workload x target matrix.
type Job struct {
	Workload string
	Target   config.Target
}

// JobResult pairs a job with its outcome. On a clean run Err is nil;
// a trap or failed output check sets Err and still carries the partial
// Result (see RunContext); a build/compile failure leaves Result nil.
type JobResult struct {
	Job    Job
	Result *Result
	Err    error
}

// Batch is the concurrent matrix executor: it runs every job through
// RunContext on a bounded worker pool, building each (workload,
// target) spec and artifact once in a Cache and aggregating results in
// job order.
//
// Determinism: the simulator is deterministic, the spec and artifact a
// job runs are immutable values shared through the cache, and every run
// owns the rest (its memory image and machine, counters included), so the
// Parallel setting changes wall-clock time and nothing else — results
// are identical to a serial run of the same jobs, which the bench
// golden test asserts byte-for-byte.
type Batch struct {
	// Params scales the workloads.
	Params workloads.Params
	// Parallel bounds concurrent runs; <=0 selects GOMAXPROCS.
	Parallel int
	// Cache memoizes specs and compile artifacts; nil allocates a
	// private one.
	Cache *Cache
	// Options apply to every run of the batch.
	Options []Option
}

// Matrix builds the full cross product of workload names and targets
// in row-major order (all targets of the first workload, then the
// next), matching the serial nesting of the paper's evaluation loops.
func Matrix(names []string, targets []config.Target) []Job {
	jobs := make([]Job, 0, len(names)*len(targets))
	for _, n := range names {
		for _, t := range targets {
			jobs = append(jobs, Job{Workload: n, Target: t})
		}
	}
	return jobs
}

// Run executes the jobs with bounded parallelism and returns their
// results indexed exactly like jobs. Cancellation: a canceled ctx
// aborts in-flight simulations cooperatively (TrapCanceled) and marks
// every queued-but-unstarted job with the context's error immediately —
// no compile, no simulation cycles — so a canceled batch unwinds at
// worker speed, not at queue-drain speed. Run itself always returns
// len(jobs) results, and every error of a job canceled before it ran
// satisfies errors.Is(err, ctx.Err()).
func (b *Batch) Run(ctx context.Context, jobs []Job) []JobResult {
	workers := b.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	cache := b.Cache
	if cache == nil {
		cache = NewCache()
	}

	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	pool := NewPool(workers, 0)
	for i := range jobs {
		i := i
		if err := pool.Submit(ctx, func() {
			results[i] = b.runOne(ctx, cache, jobs[i])
		}); err != nil {
			results[i] = JobResult{Job: jobs[i],
				Err: fmt.Errorf("batch: job canceled before start: %w", err)}
		}
	}
	pool.Close()
	return results
}

// runOne executes a single job on the cached spec and artifact of its
// key. A job a worker picks up after cancellation is marked canceled
// without compiling or simulating anything.
func (b *Batch) runOne(ctx context.Context, cache *Cache, j Job) JobResult {
	if err := ctx.Err(); err != nil {
		return JobResult{Job: j, Err: fmt.Errorf("batch: job canceled before start: %w", err)}
	}
	w, art, _, err := cache.Lookup(j.Workload, b.Params, j.Target)
	if err != nil {
		return JobResult{Job: j, Err: err}
	}
	opts := append(append([]Option(nil), b.Options...), WithArtifact(art))
	res, err := RunContext(ctx, w, j.Target, opts...)
	return JobResult{Job: j, Result: res, Err: err}
}
