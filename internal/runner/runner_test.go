package runner_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

func spec(t testing.TB, name string) *workloads.Spec {
	t.Helper()
	w, err := workloads.ByName(name, workloads.Small())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func targets() []config.Target {
	return []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
}

// TestRunContextConcurrentTargets runs the same workload on all four
// configurations concurrently — the race detector's view of the
// instance-scoped design — and checks every run reproduces its serial
// baseline exactly.
func TestRunContextConcurrentTargets(t *testing.T) {
	tgts := targets()
	baseline := make([]tmsim.Stats, len(tgts))
	for i, tgt := range tgts {
		r, err := runner.RunContext(context.Background(), spec(t, "memcpy"), tgt)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = r.Stats
	}

	const rounds = 3 // 4 targets x 3 = 12 concurrent runs
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(tgts))
	for round := 0; round < rounds; round++ {
		for i, tgt := range tgts {
			wg.Add(1)
			go func(i int, tgt config.Target) {
				defer wg.Done()
				w, err := workloads.ByName("memcpy", workloads.Small())
				if err != nil {
					errs <- err
					return
				}
				r, err := runner.RunContext(context.Background(), w, tgt)
				if err != nil {
					errs <- err
					return
				}
				if r.Stats != baseline[i] {
					errs <- errors.New(tgt.Name + ": concurrent run diverged from serial baseline")
				}
			}(i, tgt)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunContextCanceled: a canceled context aborts the run with a
// structured TrapCanceled whose cause chains to context.Canceled.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runner.RunContext(ctx, spec(t, "memcpy"), config.ConfigD())
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	var trap *tmsim.TrapError
	if !errors.As(err, &trap) || trap.Kind != tmsim.TrapCanceled {
		t.Errorf("want TrapCanceled, got %v", err)
	}
	if res == nil || res.Machine == nil {
		t.Error("canceled run must return the partial result for diagnostics")
	}
}

// TestRunContextWatchdog: WithWatchdog bounds issued instructions and
// the partial result still carries the machine and its counters.
func TestRunContextWatchdog(t *testing.T) {
	res, err := runner.RunContext(context.Background(), spec(t, "memcpy"), config.ConfigD(),
		runner.WithWatchdog(16))
	var trap *tmsim.TrapError
	if !errors.As(err, &trap) || trap.Kind != tmsim.TrapWatchdog {
		t.Fatalf("want TrapWatchdog, got %v", err)
	}
	if res == nil || res.Stats.Instrs == 0 {
		t.Fatal("trapped run must return partial stats")
	}
	snap := res.Machine.Registry().Snapshot()
	if len(snap) == 0 {
		t.Error("trapped run's machine has no counters")
	}
	if got := snap.Get("sim.cycles"); got != res.Stats.Cycles {
		t.Errorf("snapshot sim.cycles = %d, stats say %d", got, res.Stats.Cycles)
	}
}

// TestRunContextOptions exercises the remaining per-run knobs on a
// clean run: static verification gate, profile, strict memory.
func TestRunContextOptions(t *testing.T) {
	var prof *telemetry.Profile
	res, err := runner.RunContext(context.Background(), spec(t, "memcpy"), config.ConfigD(),
		runner.WithVerify(true),
		runner.WithStrictMem(true),
		runner.WithMachineSetup(func(m *tmsim.Machine) { prof = m.EnableProfile() }))
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("EnableProfile in the machine setup produced no profile")
	}
	if got := prof.TotalCycles(); got != res.Stats.Cycles {
		t.Errorf("profile attributes %d cycles, stats say %d", got, res.Stats.Cycles)
	}
	if res.CodeBytes() == 0 || res.SchedInstrs() == 0 || res.OPIStatic() <= 0 {
		t.Error("artifact-derived result stats missing")
	}
}

// TestCompileDeterministic: two compiles from independently built spec
// instances of the same (name, params, target) produce byte-identical
// images — the invariant the artifact cache rests on.
func TestCompileDeterministic(t *testing.T) {
	for _, name := range []string{"memcpy", "mpeg2_a"} {
		tgt := config.ConfigD()
		a1, err := runner.CompileWorkload(spec(t, name), tgt)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := runner.CompileWorkload(spec(t, name), tgt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a1.Enc.Bytes, a2.Enc.Bytes) {
			t.Errorf("%s: two compiles of the same key differ", name)
		}
	}
}

// TestCacheSingleflight: concurrent lookups of one key share a single
// build: one spec and one artifact.
func TestCacheSingleflight(t *testing.T) {
	c := runner.NewCache()
	const callers = 16
	specs := make([]*workloads.Spec, callers)
	arts := make([]*runner.Artifact, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, a, _, err := c.Lookup("memcpy", workloads.Small(), config.ConfigD())
			if err != nil {
				t.Error(err)
				return
			}
			specs[i], arts[i] = w, a
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if specs[i] != specs[0] || arts[i] != arts[0] {
			t.Fatal("cache returned distinct specs or artifacts for one key")
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 || s.Failures != 0 {
		t.Errorf("stats = %+v, want 1 miss, %d hits", s, callers-1)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheKeying: the key is the full (name, params, target) triple —
// a different target or parameter set must not share an artifact.
func TestCacheKeying(t *testing.T) {
	c := runner.NewCache()
	small, full := workloads.Small(), workloads.Full()
	_, a1, _, err := c.Lookup("memcpy", small, config.ConfigD())
	if err != nil {
		t.Fatal(err)
	}
	_, a2, _, err := c.Lookup("memcpy", small, config.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	_, a3, _, err := c.Lookup("memcpy", full, config.ConfigD())
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 || a1 == a3 {
		t.Error("distinct keys shared an artifact")
	}
	if s := c.Stats(); s.Misses != 3 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses", s)
	}
}

// TestCacheFailure: a failing key is memoized too — one failure count,
// the same error on every lookup, no recompilation storm.
func TestCacheFailure(t *testing.T) {
	c := runner.NewCache()
	if _, _, _, err := c.Lookup("no_such_workload", workloads.Small(), config.ConfigD()); err == nil {
		t.Fatal("unknown workload compiled")
	}
	if _, _, _, err := c.Lookup("no_such_workload", workloads.Small(), config.ConfigD()); err == nil {
		t.Fatal("memoized failure lost its error")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 || s.Failures != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 failure", s)
	}
}

// TestBatchOrderedDeterministic: a parallel batch returns results in
// job order with stats identical to the serial batch of the same jobs.
func TestBatchOrderedDeterministic(t *testing.T) {
	jobs := runner.Matrix([]string{"memcpy", "memset", "filter"}, targets())
	serial := runner.Batch{Params: workloads.Small(), Parallel: 1}
	par := runner.Batch{Params: workloads.Small(), Parallel: 4, Cache: runner.NewCache()}

	sres := serial.Run(context.Background(), jobs)
	pres := par.Run(context.Background(), jobs)
	if len(sres) != len(jobs) || len(pres) != len(jobs) {
		t.Fatalf("got %d/%d results for %d jobs", len(sres), len(pres), len(jobs))
	}
	for i, j := range jobs {
		if sres[i].Job != j || pres[i].Job != j {
			t.Fatalf("result %d out of job order", i)
		}
		if sres[i].Err != nil {
			t.Fatalf("%s on %s: %v", j.Workload, j.Target.Name, sres[i].Err)
		}
		if pres[i].Err != nil {
			t.Fatalf("%s on %s: %v", j.Workload, j.Target.Name, pres[i].Err)
		}
		if sres[i].Result.Stats != pres[i].Result.Stats {
			t.Errorf("%s on %s: parallel stats diverge from serial", j.Workload, j.Target.Name)
		}
	}
	if s := par.Cache.Stats(); s.Misses != int64(len(jobs)) || s.Hits != 0 {
		t.Errorf("cache stats = %+v, want %d distinct compiles", s, len(jobs))
	}
}

// TestBatchCanceled: cancellation is cooperative and per-job — the
// batch still returns a slot for every job.
func TestBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := runner.Batch{Params: workloads.Small(), Parallel: 2}
	res := b.Run(ctx, runner.Matrix([]string{"memcpy", "memset"}, []config.Target{config.ConfigD()}))
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", r.Job.Workload, r.Err)
		}
	}
}

// TestBatchCanceledSkipsQueuedJobs: a batch whose context is already
// canceled must mark every job with the context error immediately —
// zero compiles, zero simulation — instead of feeding the queue
// through the workers one aborted run at a time.
func TestBatchCanceledSkipsQueuedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := runner.NewCache()
	b := runner.Batch{Params: workloads.Small(), Parallel: 2, Cache: cache}
	jobs := runner.Matrix(workloads.Table5Names(), targets())
	res := b.Run(ctx, jobs)
	if len(res) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(res), len(jobs))
	}
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s on %s: want context.Canceled, got %v", r.Job.Workload, r.Job.Target.Name, r.Err)
		}
	}
	if s := cache.Stats(); s.Misses != 0 {
		t.Errorf("canceled batch compiled %d artifacts, want 0", s.Misses)
	}
}

// TestBatchMidRunCancellation: cancellation raised while the first job
// is executing must abort that run cooperatively (TrapCanceled) and
// stop every queued job before it compiles anything.
func TestBatchMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := runner.NewCache()
	var once sync.Once
	b := runner.Batch{
		Params:   workloads.Small(),
		Parallel: 1,
		Cache:    cache,
		Options: []runner.Option{runner.WithMachineSetup(func(*tmsim.Machine) {
			once.Do(cancel) // cancel while the first admitted run is live
		})},
	}
	jobs := runner.Matrix(workloads.Table5Names(), []config.Target{config.ConfigD()})
	res := b.Run(ctx, jobs)
	var trap *tmsim.TrapError
	if !errors.As(res[0].Err, &trap) || trap.Kind != tmsim.TrapCanceled {
		t.Fatalf("first job: want TrapCanceled, got %v", res[0].Err)
	}
	for _, r := range res[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", r.Job.Workload, r.Err)
		}
	}
	if s := cache.Stats(); s.Misses != 1 {
		t.Errorf("batch compiled %d artifacts after mid-run cancel, want exactly the first", s.Misses)
	}
}
