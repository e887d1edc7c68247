package runner_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tm3270/internal/runner"
)

// TestPoolTrySubmitSheds: with one worker parked on a task and the
// queue full, TrySubmit must refuse further work — the admission
// signal the service layer turns into a 429 — and accepted tasks must
// still run to completion after the pool unblocks, the queued one
// reporting the time it waited behind the parked worker.
func TestPoolTrySubmitSheds(t *testing.T) {
	p := runner.NewPool(1, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int32
	var queued time.Duration

	if !p.TrySubmit(func(time.Duration) { close(started); <-release; ran.Add(1) }) {
		t.Fatal("empty pool refused a task")
	}
	<-started // the only worker is now parked
	if !p.TrySubmit(func(wait time.Duration) { queued = wait; ran.Add(1) }) {
		t.Fatal("pool refused a task with queue space free")
	}
	if p.TrySubmit(func(time.Duration) { ran.Add(1) }) {
		t.Fatal("saturated pool accepted a task; admission bound is broken")
	}
	close(release)
	p.Close()
	if got := ran.Load(); got != 2 {
		t.Errorf("ran %d accepted tasks, want 2", got)
	}
	if queued <= 0 {
		t.Errorf("queued task reported wait %v, want > 0", queued)
	}
}

// TestPoolSubmitHonorsContext: Submit must return the context error
// instead of blocking forever when no worker frees up.
func TestPoolSubmitHonorsContext(t *testing.T) {
	p := runner.NewPool(1, 0)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(context.Background(), func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Submit(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Errorf("Submit on canceled ctx = %v, want context.Canceled", err)
	}
	close(release)
	p.Close()
}
