package runner

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Pool is a bounded worker pool shared by the batch engine and the
// simulation service: a fixed set of workers draining a task queue.
// Batch uses the blocking Submit path (every job must eventually run,
// and a canceled context must stop handing queued jobs to workers);
// the service uses the non-blocking TrySubmit path, whose queue bound
// is the admission limit behind its load shedding.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// NewPool starts workers goroutines (<=0 selects GOMAXPROCS) draining
// a task queue of the given capacity (0 = hand-off only: a task is
// accepted exactly when a worker is free to take it).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func(), queue)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Submit blocks until the pool accepts f or ctx is done, in which case
// f never runs and the context's error is returned. A canceled batch
// therefore stops dispatching at the first unsubmitted job instead of
// feeding the remainder through the workers.
func (p *Pool) Submit(ctx context.Context, f func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.tasks <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySubmit enqueues f without blocking and reports whether the pool
// accepted it. False means the queue is saturated — the admission
// signal the service turns into a 429. f receives the time the task
// spent queued before a worker picked it up, the number the latency
// histograms and request span trees record as the queue-wait stage.
func (p *Pool) TrySubmit(f func(wait time.Duration)) bool {
	enq := time.Now()
	select {
	case p.tasks <- func() { f(time.Since(enq)) }:
		return true
	default:
		return false
	}
}

// Close stops accepting tasks and waits for the workers to finish the
// ones already accepted. Submitting after Close panics (send on a
// closed channel), matching the harness rule that shutdown is the last
// pool operation.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
