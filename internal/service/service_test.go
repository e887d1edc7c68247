package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tm3270/internal/service"
)

// newServer builds a test server with a tight config and returns it
// with its HTTP wrapper.
func newServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func newClient(ts *httptest.Server) *service.Client {
	return &service.Client{Base: ts.URL, HTTP: ts.Client()}
}

// TestRunLifecycle: create -> run -> inspect -> delete, all on the
// happy path. The run must complete with status ok and real cycle
// counts, and the session counters must reflect it.
func TestRunLifecycle(t *testing.T) {
	srv, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateActive || !strings.Contains(info.Target, "TM3270") || info.Params != "small" {
		t.Fatalf("unexpected session info: %+v", info)
	}

	rep, err := c.Run(ctx, info.ID, service.RunRequest{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusOK {
		t.Fatalf("run status = %q (%s), want ok", rep.Status, rep.Error)
	}
	if rep.Cycles <= 0 || rep.Instrs <= 0 {
		t.Errorf("run reported no work: cycles=%d instrs=%d", rep.Cycles, rep.Instrs)
	}
	if len(rep.Counters) == 0 {
		t.Error("telemetry requested but no counters attached")
	}
	if rep.BlockCache == nil || rep.BlockCache.Translated <= 0 {
		t.Errorf("reply carries no block-cache counters: %+v", rep.BlockCache)
	} else if got := srv.Snapshot()["service.blockcache.translated"]; got != rep.BlockCache.Translated {
		t.Errorf("service.blockcache.translated = %d, reply says %d", got, rep.BlockCache.Translated)
	}

	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.Completed != 1 || got.Counters.OK != 1 {
		t.Errorf("session counters = %+v, want completed=1 ok=1", got.Counters)
	}
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(ctx, info.ID); err == nil {
		t.Error("deleted session still answers GET")
	}
}

// TestCreateValidation: bad workload, bad target, bad params must all
// come back as 400s with messages, not 5xx.
func TestCreateValidation(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	for _, req := range []service.CreateSessionRequest{
		{Workload: "no-such-workload"},
		{Workload: "memcpy", Target: "z80"},
		{Workload: "memcpy", Params: "enormous"},
	} {
		_, err := c.CreateSession(ctx, req)
		ae, ok := err.(*service.APIError)
		if !ok || ae.Code != http.StatusBadRequest {
			t.Errorf("CreateSession(%+v) err = %v, want 400 APIError", req, err)
		}
	}
	if _, err := c.Run(ctx, "s-999", service.RunRequest{}); err == nil {
		t.Error("run on unknown session succeeded")
	} else if ae, ok := err.(*service.APIError); !ok || ae.Code != http.StatusNotFound {
		t.Errorf("run on unknown session err = %v, want 404", err)
	}
}

// TestQueueFullSheds: with one worker wedged on a slow run and the
// queue at depth 1, the next submission must shed with 429 and a
// Retry-After hint — never block, never 5xx.
func TestQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	srv, ts := newServer(t, service.Config{
		Workers:    1,
		QueueDepth: 1,
		BeforeRun:  func(string, int64) { <-block },
	})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	t.Cleanup(unblock) // before ts.Close so a Fatal path can't wedge shutdown
	c := newClient(ts)
	c.MaxAttempts = 1 // surface the 429 instead of retrying through it
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memset"})
	if err != nil {
		t.Fatal(err)
	}

	// Two async runs: one wedges the worker, one fills the queue.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c2 := newClient(ts)
			if _, err := c2.Run(ctx, info.ID, service.RunRequest{}); err != nil {
				t.Errorf("admitted run failed: %v", err)
			}
		}()
	}
	// Wait for worker wedge + queue fill.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot()["service.runs.admitted"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("runs never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err = c.Run(ctx, info.ID, service.RunRequest{})
	ae, ok := err.(*service.APIError)
	if !ok || ae.Code != http.StatusTooManyRequests {
		t.Fatalf("overload run err = %v, want 429", err)
	}
	if ae.RetryAfter <= 0 {
		t.Error("shed response carried no retry hint")
	}
	if srv.Snapshot()["service.shed.queue"] == 0 {
		t.Error("queue shed not counted")
	}
	unblock()
	wg.Wait()
}

// TestQuotaSheds: a session with quota 1 must shed its second
// concurrent run with 429 while the first is still executing.
func TestQuotaSheds(t *testing.T) {
	block := make(chan struct{})
	srv, ts := newServer(t, service.Config{
		Workers:   2,
		BeforeRun: func(string, int64) { <-block },
	})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	c := newClient(ts)
	c.MaxAttempts = 1
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: "memset",
		Options:  service.SessionOptions{Quota: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := newClient(ts).Run(ctx, info.ID, service.RunRequest{})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot()["service.runs.admitted"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first run never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err = c.Run(ctx, info.ID, service.RunRequest{})
	if ae, ok := err.(*service.APIError); !ok || ae.Code != http.StatusTooManyRequests {
		t.Fatalf("quota overflow err = %v, want 429", err)
	}
	if srv.Snapshot()["service.shed.quota"] == 0 {
		t.Error("quota shed not counted")
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunDeadline: a run whose deadline expires mid-simulation must
// come back as a structured timeout (200 + status=timeout), not a hung
// connection or a 5xx.
func TestRunDeadline(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: "mpeg2_super", Params: "full",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(ctx, info.ID, service.RunRequest{DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusTimeout {
		t.Fatalf("run status = %q (%s), want timeout", rep.Status, rep.Error)
	}
	if rep.Trap == nil || rep.Trap.Kind != "canceled" {
		t.Errorf("timeout reply trap = %+v, want canceled kind", rep.Trap)
	}
}

// TestDeleteCancelsInFlight: DELETE on a session with a run in
// progress must abort it cooperatively; the run's already-admitted
// reply still arrives, classified canceled.
func TestDeleteCancelsInFlight(t *testing.T) {
	admitted := make(chan struct{})
	var once sync.Once
	_, ts := newServer(t, service.Config{
		BeforeRun: func(string, int64) { once.Do(func() { close(admitted) }) },
	})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: "mpeg2_super", Params: "full",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *service.RunReply, 1)
	go func() {
		rep, err := newClient(ts).Run(ctx, info.ID, service.RunRequest{DeadlineMS: 60_000})
		if err != nil {
			t.Errorf("in-flight run transport error: %v", err)
			done <- nil
			return
		}
		done <- rep
	}()
	<-admitted
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-done:
		if rep == nil {
			t.Fatal("no reply")
		}
		if rep.Status != service.StatusCanceled {
			t.Errorf("deleted session's run status = %q (%s), want canceled", rep.Status, rep.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight run never replied after DELETE — hung connection")
	}
}

// TestPanicQuarantine: a panicking run must (1) answer with a
// structured panic status, (2) quarantine only its session — 409 on
// resubmit — and (3) leave other sessions streaming normally.
func TestPanicQuarantine(t *testing.T) {
	srv, ts := newServer(t, service.Config{
		BeforeRun: func(id string, seq int64) {
			if id == "s-1" {
				panic("chaos: injected worker fault")
			}
		},
	})
	c := newClient(ts)
	ctx := context.Background()

	bad, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.Run(ctx, bad.ID, service.RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusPanic {
		t.Fatalf("panicking run status = %q, want panic", rep.Status)
	}
	if !strings.Contains(rep.Error, "quarantined") {
		t.Errorf("panic reply error = %q, want quarantine notice", rep.Error)
	}

	// The poisoned session refuses further runs with 409.
	if _, err := c.Run(ctx, bad.ID, service.RunRequest{}); err == nil {
		t.Error("quarantined session accepted a run")
	} else if ae, ok := err.(*service.APIError); !ok || ae.Code != http.StatusConflict {
		t.Errorf("quarantined session err = %v, want 409", err)
	}

	// Unrelated sessions are untouched.
	rep, err = c.Run(ctx, good.ID, service.RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusOK {
		t.Errorf("sibling session run status = %q (%s), want ok", rep.Status, rep.Error)
	}

	snap := srv.Snapshot()
	if snap["service.panics"] != 1 || snap["service.quarantines"] != 1 {
		t.Errorf("panics=%d quarantines=%d, want 1/1",
			snap["service.panics"], snap["service.quarantines"])
	}
	bi, err := c.Session(ctx, bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bi.State != service.StateQuarantined || bi.Reason == "" {
		t.Errorf("poisoned session state = %q reason=%q, want quarantined", bi.State, bi.Reason)
	}
}

// TestDrain: once a drain starts, new runs shed with 429 while every
// in-flight run still delivers its reply; a drain that outlives its
// deadline cancels stragglers but never drops their responses.
func TestDrain(t *testing.T) {
	admitted := make(chan struct{})
	var once sync.Once
	srv, ts := newServer(t, service.Config{
		BeforeRun: func(string, int64) { once.Do(func() { close(admitted) }) },
	})
	c := newClient(ts)
	c.MaxAttempts = 1
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: "mpeg2_super", Params: "full",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *service.RunReply, 1)
	go func() {
		rep, err := newClient(ts).Run(ctx, info.ID, service.RunRequest{DeadlineMS: 60_000})
		if err != nil {
			t.Errorf("in-flight run transport error: %v", err)
			done <- nil
			return
		}
		done <- rep
	}()
	<-admitted

	// Drain with a deadline too short for the full-size run: it must
	// cancel the straggler, return ctx.Err, and the reply must still
	// arrive as a structured cancellation.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); err != context.DeadlineExceeded {
		t.Errorf("Drain = %v, want DeadlineExceeded (straggler cancel)", err)
	}

	// Admission is closed: new runs shed with 429, readiness reports it.
	if _, err := c.Run(ctx, info.ID, service.RunRequest{}); err == nil {
		t.Error("draining server admitted a run")
	} else if ae, ok := err.(*service.APIError); !ok || ae.Code != http.StatusTooManyRequests {
		t.Errorf("draining admission err = %v, want 429", err)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}

	select {
	case rep := <-done:
		if rep == nil {
			t.Fatal("no reply")
		}
		if rep.Status != service.StatusCanceled && rep.Status != service.StatusOK {
			t.Errorf("drained run status = %q (%s), want canceled (or ok if it won the race)",
				rep.Status, rep.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight run dropped during drain")
	}
}

// TestRetune: PUT swaps session options for subsequent runs — here a
// 1-instruction watchdog, which must turn the next run into a trap.
func TestRetune(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retune(ctx, info.ID, service.SessionOptions{WatchdogInstrs: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(ctx, info.ID, service.RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusTrap || rep.Trap == nil || rep.Trap.Kind != "watchdog" {
		t.Errorf("retuned run = %q trap=%+v, want watchdog trap", rep.Status, rep.Trap)
	}
}

// TestFaultInjectionRun: an injected fault campaign runs through the
// service and reports its event count; an undecodable spec is a 400.
func TestFaultInjectionRun(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(ts)
	ctx := context.Background()

	info, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(ctx, info.ID, service.RunRequest{Inject: "busdelay:1:32", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != service.StatusOK {
		t.Fatalf("busdelay run status = %q (%s), want ok (delays are benign)", rep.Status, rep.Error)
	}
	if rep.Faults == 0 {
		t.Error("rate-1 injection reported zero fault events")
	}
	if _, err := c.Run(ctx, info.ID, service.RunRequest{Inject: "nonsense:9:9"}); err == nil {
		t.Error("bad inject spec accepted")
	}
}
