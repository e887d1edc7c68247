package campaign

import (
	"context"
	"fmt"
	"sync"

	"tm3270/internal/runner"
)

// Shard selects the slice of the unit matrix this process owns: unit
// index i (0-based, over the full matrix) belongs to shard Index/Count
// when i ≡ Index-1 (mod Count). The zero value means "the whole
// matrix" (1/1).
type Shard struct {
	Index int // 1-based
	Count int
}

func (s Shard) fill() Shard {
	if s.Count <= 0 {
		return Shard{Index: 1, Count: 1}
	}
	return s
}

// Validate rejects malformed shard selectors.
func (s Shard) Validate() error {
	s = s.fill()
	if s.Index < 1 || s.Index > s.Count {
		return fmt.Errorf("campaign: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

func (s Shard) covers(i int) bool {
	s = s.fill()
	return i%s.Count == s.Index-1
}

// String renders "i/n".
func (s Shard) String() string {
	s = s.fill()
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Label is the shard's store file label ("1of4").
func (s Shard) Label() string {
	s = s.fill()
	return fmt.Sprintf("%dof%d", s.Index, s.Count)
}

// Config parameterizes one engine run.
type Config struct {
	// Workers bounds the worker pool (<=0 = GOMAXPROCS).
	Workers int
	// Store persists results (nil = in-memory only: the run is still
	// deterministic, just not resumable).
	Store *Store
	// Shard selects this process's slice of the matrix (zero = all).
	Shard Shard
	// Progress, when non-nil, is called under the engine lock after
	// each unit completes (cached or executed) with running totals.
	Progress func(done, total, cached int)
	// Reduce, when non-nil, is called once per covered unit in
	// unit-matrix order after the run completes — the deterministic
	// reduction hook campaign owners build their reports from. Campaign
	// drivers (cosim.RunCampaign, faults.RunMatrixCampaign) own it: they
	// set it on their copy of the Config the caller hands them.
	Reduce func(i int, u Unit, r Result)
}

// Stats describes one engine run (run-dependent, excluded from the
// aggregate by design).
type Stats struct {
	Total    int // covered units
	Executed int
	Cached   int
	Bad      int
}

// Outcome pairs the deterministic aggregate with the run's stats.
type Outcome struct {
	Aggregate *Aggregate
	Stats     Stats
}

// Run executes the covered slice of the unit matrix: store hits are
// reused, misses fan out across the worker pool, every fresh result is
// appended to the store before it counts as done, and the aggregate is
// reduced in matrix order. A unit-runner error aborts the whole run
// (harness failure, not a finding); the store keeps the completed
// units, so the campaign resumes after the cause is fixed.
func Run(ctx context.Context, cfg Config, units []Unit, fn func(context.Context, Unit) (Result, error)) (*Outcome, error) {
	if err := cfg.Shard.Validate(); err != nil {
		return nil, err
	}
	hashes := make([]string, len(units))
	seen := make(map[string]int, len(units))
	for i, u := range units {
		hashes[i] = u.Hash()
		if j, dup := seen[hashes[i]]; dup {
			return nil, fmt.Errorf("campaign: units %d and %d share hash %s (%s)", j, i, hashes[i], u)
		}
		seen[hashes[i]] = i
	}

	spec := ""
	if cfg.Store != nil {
		spec = cfg.Store.spec
	}

	results := make([]Result, len(units))
	covered := make([]bool, len(units))
	stats := Stats{}
	var pending []int
	for i := range units {
		if !cfg.Shard.covers(i) {
			continue
		}
		covered[i] = true
		stats.Total++
		if cfg.Store != nil {
			if r, ok := cfg.Store.Have(hashes[i]); ok {
				results[i] = r
				stats.Cached++
				continue
			}
		}
		pending = append(pending, i)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		done     = stats.Cached
	)
	if cfg.Progress != nil && stats.Cached > 0 {
		cfg.Progress(done, stats.Total, stats.Cached)
	}
	pool := runner.NewPool(cfg.Workers, 0)
	for _, i := range pending {
		i := i
		wg.Add(1)
		err := pool.Submit(runCtx, func() {
			defer wg.Done()
			r, err := fn(runCtx, units[i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("campaign: unit %s: %w", units[i], err)
					cancel()
				}
				return
			}
			if cfg.Store != nil {
				if aerr := cfg.Store.Append(units[i], r); aerr != nil && firstErr == nil {
					firstErr = aerr
					cancel()
					return
				}
			}
			results[i] = r
			done++
			stats.Executed++
			if cfg.Progress != nil {
				cfg.Progress(done, stats.Total, stats.Cached)
			}
		})
		if err != nil {
			// Submission stopped: the context is done (a worker failed or
			// the caller canceled). The submitted units still drain.
			wg.Done()
			break
		}
	}
	wg.Wait()
	pool.Close()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}

	agg := &Aggregate{Spec: spec, ByStatus: map[string]int{}}
	for i := range units {
		if !covered[i] {
			continue
		}
		r := results[i]
		agg.Units++
		agg.ByStatus[r.Status]++
		agg.Instrs += r.Instrs
		if r.Bad {
			agg.Bad = append(agg.Bad, Finding{Unit: units[i], Result: r})
			stats.Bad++
		}
		if cfg.Reduce != nil {
			cfg.Reduce(i, units[i], r)
		}
	}
	if cfg.Store != nil {
		if err := cfg.Store.WriteManifest(Manifest{
			Units: stats.Total, Executed: stats.Executed,
			Cached: stats.Cached, Bad: stats.Bad,
		}); err != nil {
			return nil, err
		}
	}
	return &Outcome{Aggregate: agg, Stats: stats}, nil
}
