package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/faults"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// Session states.
const (
	StateActive      = "active"
	StateQuarantined = "quarantined"
	StateClosed      = "closed"
)

// Run statuses. Every admitted run resolves to exactly one of these in
// a 200 response — run outcomes are results, not transport errors, and
// the daemon never converts one into a 5xx.
const (
	StatusOK        = "ok"           // completed, output check passed
	StatusTrap      = "trap"         // structured simulator trap
	StatusTimeout   = "timeout"      // per-run deadline expired (TrapCanceled)
	StatusCanceled  = "canceled"     // session deleted / drain cutoff mid-run
	StatusCheckFail = "check-failed" // simulated output diverged from the reference
	StatusPanic     = "panic"        // run panicked; session quarantined
	StatusError     = "error"        // infrastructure failure before execution
)

// SessionOptions are the retunable per-session knobs (PUT applies them
// to subsequent runs; in-flight runs keep the options they started
// with).
type SessionOptions struct {
	// WatchdogInstrs bounds each run's issued instructions (0 =
	// simulator default).
	WatchdogInstrs int64 `json:"watchdog_instrs,omitempty"`
	// DeadlineMS bounds each run's wall-clock time (0 = server
	// default); it maps onto RunContext cancellation.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// StrictMem traps loads of never-written bytes.
	StrictMem bool `json:"strict_mem,omitempty"`
	// Verify gates each run on the whole-program static verifier.
	Verify bool `json:"verify,omitempty"`
	// Quota bounds the session's concurrent in-flight runs (0 = server
	// default).
	Quota int `json:"quota,omitempty"`
}

// CreateSessionRequest is the POST /sessions body.
type CreateSessionRequest struct {
	// Workload names a registry workload (workloads.Names).
	Workload string `json:"workload"`
	// Target selects the processor configuration: A-D, TM3260, TM3270
	// (default TM3270).
	Target string `json:"target,omitempty"`
	// Params selects the workload scale: "small" (default) or "full".
	Params string `json:"params,omitempty"`
	// Options are the initial session options.
	Options SessionOptions `json:"options,omitempty"`
}

// SessionCounters is the per-session telemetry block exposed by GET.
type SessionCounters struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	OK        int64 `json:"ok"`
	Traps     int64 `json:"traps"`
	Timeouts  int64 `json:"timeouts"`
	Canceled  int64 `json:"canceled"`
}

// SessionInfo is the GET /sessions/{id} body.
type SessionInfo struct {
	ID       string          `json:"id"`
	Workload string          `json:"workload"`
	Target   string          `json:"target"`
	Params   string          `json:"params"`
	State    string          `json:"state"`
	Reason   string          `json:"reason,omitempty"` // quarantine cause
	Options  SessionOptions  `json:"options"`
	Counters SessionCounters `json:"counters"`
}

// RunRequest is the POST /sessions/{id}/runs body — one cell of the
// streaming I/O plane.
type RunRequest struct {
	// DeadlineMS overrides the session deadline for this run only.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Inject arms a seeded fault injector for this run, in
	// faults.ParseSpec form ("bitflip", "busdelay:0.1:400", ...).
	Inject string `json:"inject,omitempty"`
	// Seed seeds the injector (and distinguishes repeat campaigns).
	Seed int64 `json:"seed,omitempty"`
	// Telemetry attaches the run's full counter snapshot to the reply.
	Telemetry bool `json:"telemetry,omitempty"`
}

// TrapInfo is the structured trap detail of a faulted run.
type TrapInfo struct {
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
	Op     string `json:"op,omitempty"`
	PC     uint32 `json:"pc"`
	Cycle  int64  `json:"cycle"`
	Issue  int64  `json:"issue"`
}

// BlockCacheInfo is the translation-cache activity of one run.
type BlockCacheInfo struct {
	Translated int64 `json:"translated"`
	Hits       int64 `json:"hits"`
}

// RunReply is the response to one run request.
type RunReply struct {
	Session   string    `json:"session"`
	Seq       int64     `json:"seq"`
	RequestID string    `json:"request_id,omitempty"`
	Status    string    `json:"status"`
	Error     string    `json:"error,omitempty"`
	Trap      *TrapInfo `json:"trap,omitempty"`
	Cycles    int64     `json:"cycles,omitempty"`
	Instrs    int64     `json:"instrs,omitempty"`
	CPI       float64   `json:"cpi,omitempty"`
	OPI       float64   `json:"opi,omitempty"`
	Faults    int       `json:"faults,omitempty"` // injected fault events
	// BlockCache carries the translation-cache counters of every run
	// that executed.
	BlockCache *BlockCacheInfo    `json:"blockcache,omitempty"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	Counters   telemetry.Snapshot `json:"counters,omitempty"`
}

// sessionCounters is the atomic backing of SessionCounters.
type sessionCounters struct {
	submitted, completed, shed    atomic.Int64
	ok, traps, timeouts, canceled atomic.Int64
}

func (c *sessionCounters) snapshot() SessionCounters {
	return SessionCounters{
		Submitted: c.submitted.Load(),
		Completed: c.completed.Load(),
		Shed:      c.shed.Load(),
		OK:        c.ok.Load(),
		Traps:     c.traps.Load(),
		Timeouts:  c.timeouts.Load(),
		Canceled:  c.canceled.Load(),
	}
}

// Session is one tenant's processor instance: an immutable (workload,
// params, target) binding plus retunable options and a private
// lifetime context every run derives from — canceling it (DELETE,
// quarantine, drain cutoff) aborts the session's in-flight runs
// cooperatively.
type Session struct {
	id         string
	workload   string
	paramsName string
	params     workloads.Params
	target     config.Target

	// The session's lifetime (see the type comment), not a request
	// context: runs derive from it so DELETE/drain aborts them.
	ctx    context.Context //tmvet:allow
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	reason   string
	opts     SessionOptions
	seq      int64
	inflight int

	// traceMu guards the per-run trace retention ring (the last
	// runTraceCap runs' span trees and counter snapshots, served by
	// GET /sessions/{id}/runs/{run}/trace).
	traceMu   sync.Mutex
	traces    map[int64]*runTrace
	traceSeqs []int64

	c sessionCounters
}

// runTraceCap bounds per-session run-trace retention.
const runTraceCap = 64

// runTrace is the retained observability record of one run.
type runTrace struct {
	reqID    string
	status   string
	root     *telemetry.Span
	counters telemetry.Snapshot
}

// storeTrace retains one run's trace, evicting the oldest past the cap.
func (sess *Session) storeTrace(seq int64, rt *runTrace) {
	sess.traceMu.Lock()
	defer sess.traceMu.Unlock()
	if sess.traces == nil {
		sess.traces = make(map[int64]*runTrace)
	}
	sess.traces[seq] = rt
	sess.traceSeqs = append(sess.traceSeqs, seq)
	for len(sess.traceSeqs) > runTraceCap {
		delete(sess.traces, sess.traceSeqs[0])
		sess.traceSeqs = sess.traceSeqs[1:]
	}
}

// RunTrace is the GET /sessions/{id}/runs/{run}/trace body: the run's
// span tree (request-root down to the execute stage, annotated from
// the cycle model) and its final counter snapshot, stall counters
// included. Span times are microseconds since the server's epoch.
type RunTrace struct {
	Session   string              `json:"session"`
	Seq       int64               `json:"seq"`
	RequestID string              `json:"request_id,omitempty"`
	Status    string              `json:"status"`
	Span      *telemetry.SpanJSON `json:"span,omitempty"`
	Counters  telemetry.Snapshot  `json:"counters,omitempty"`
}

// RunTrace returns the retained trace of one run of a live session.
func (s *Server) RunTrace(id string, seq int64) (*RunTrace, error) {
	sess, ok := s.session(id)
	if !ok {
		return nil, &APIError{Code: 404, Msg: fmt.Sprintf("no session %q", id)}
	}
	sess.traceMu.Lock()
	rt, ok := sess.traces[seq]
	sess.traceMu.Unlock()
	if !ok {
		return nil, &APIError{Code: 404,
			Msg: fmt.Sprintf("session %s retains no trace for run %d", id, seq)}
	}
	return &RunTrace{
		Session:   sess.id,
		Seq:       seq,
		RequestID: rt.reqID,
		Status:    rt.status,
		Span:      rt.root.JSON(s.spans.Epoch()),
		Counters:  rt.counters,
	}, nil
}

// parseParams maps the API's scale names onto workload parameter sets.
func parseParams(name string) (workloads.Params, string, error) {
	switch name {
	case "", "small":
		return workloads.Small(), "small", nil
	case "full":
		return workloads.Full(), "full", nil
	}
	return workloads.Params{}, "", fmt.Errorf("unknown params %q (want small or full)", name)
}

// CreateSession validates the request, builds and compiles the
// workload once (the schedulability check; the spec and artifact land
// in the shared cache, and every run of the session reuses both) and
// registers the session. It fails with ErrShed when the session table
// is full.
func (s *Server) CreateSession(req CreateSessionRequest) (*SessionInfo, error) {
	w := req.Workload
	if !slices.Contains(workloads.Names(), w) {
		return nil, &APIError{Code: 400, Msg: fmt.Sprintf("unknown workload %q", w)}
	}
	params, paramsName, err := parseParams(req.Params)
	if err != nil {
		return nil, &APIError{Code: 400, Msg: err.Error()}
	}
	// An empty target selects the TM3270 (configuration D).
	tname := req.Target
	if tname == "" {
		tname = "TM3270"
	}
	target, err := config.ByName(tname)
	if err != nil {
		return nil, &APIError{Code: 400, Msg: err.Error()}
	}
	if _, _, _, err := s.cache.Lookup(w, params, target); err != nil {
		return nil, &APIError{Code: 400,
			Msg: fmt.Sprintf("%s does not build for %s: %v", w, target.Name, err)}
	}

	opts := req.Options
	if opts.Quota <= 0 {
		opts.Quota = s.cfg.SessionQuota
	}
	ctx, cancel := context.WithCancel(s.rootCtx)
	sess := &Session{
		workload:   w,
		paramsName: paramsName,
		params:     params,
		target:     target,
		ctx:        ctx,
		cancel:     cancel,
		state:      StateActive,
		opts:       opts,
	}

	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		cancel()
		s.c.shedSessions.Add(1)
		return nil, &APIError{Code: 429, Msg: "session table full", RetryAfter: s.cfg.RetryAfter}
	}
	sess.id = s.newSessionID()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.c.sessionsCreated.Add(1)
	return sess.info(), nil
}

// session looks a live session up.
func (s *Server) session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Sessions lists every live session's info, ordered by id.
func (s *Server) Sessions() []*SessionInfo {
	s.mu.Lock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	infos := make([]*SessionInfo, len(out))
	for i, sess := range out {
		infos[i] = sess.info()
	}
	return infos
}

// DeleteSession cancels the session's in-flight runs and removes it.
// In-flight runs still deliver structured "canceled" replies.
func (s *Server) DeleteSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return &APIError{Code: 404, Msg: fmt.Sprintf("no session %q", id)}
	}
	sess.mu.Lock()
	sess.state = StateClosed
	sess.mu.Unlock()
	sess.cancel()
	s.c.sessionsDeleted.Add(1)
	return nil
}

// Retune applies new options to subsequent runs of the session.
func (s *Server) Retune(id string, opts SessionOptions) (*SessionInfo, error) {
	sess, ok := s.session(id)
	if !ok {
		return nil, &APIError{Code: 404, Msg: fmt.Sprintf("no session %q", id)}
	}
	sess.mu.Lock()
	if opts.Quota <= 0 {
		opts.Quota = s.cfg.SessionQuota
	}
	sess.opts = opts
	sess.mu.Unlock()
	return sess.info(), nil
}

// SessionInfo returns one session's info.
func (s *Server) SessionInfo(id string) (*SessionInfo, error) {
	sess, ok := s.session(id)
	if !ok {
		return nil, &APIError{Code: 404, Msg: fmt.Sprintf("no session %q", id)}
	}
	return sess.info(), nil
}

func (sess *Session) info() *SessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return &SessionInfo{
		ID:       sess.id,
		Workload: sess.workload,
		Target:   sess.target.Name,
		Params:   sess.paramsName,
		State:    sess.state,
		Reason:   sess.reason,
		Options:  sess.opts,
		Counters: sess.c.snapshot(),
	}
}

// quarantine poisons the session: state flips, the lifetime context is
// canceled so sibling in-flight runs abort, and new submissions are
// refused with 409. The server-wide quarantine counter increments
// exactly once per session.
func (sess *Session) quarantine(srv *Server, reason string) {
	sess.mu.Lock()
	already := sess.state == StateQuarantined
	if !already && sess.state == StateActive {
		sess.state = StateQuarantined
		sess.reason = reason
	}
	sess.mu.Unlock()
	if !already {
		srv.c.quarantines.Add(1)
		sess.cancel()
	}
}

// tryAcquire claims one in-flight slot against the session quota and
// assigns the run sequence number.
func (sess *Session) tryAcquire() (int64, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state != StateActive {
		return 0, false
	}
	if sess.inflight >= sess.opts.Quota {
		return 0, false
	}
	sess.inflight++
	sess.seq++
	return sess.seq, true
}

func (sess *Session) release() {
	sess.mu.Lock()
	sess.inflight--
	sess.mu.Unlock()
}

// optionsSnapshot reads the options a run starts with.
func (sess *Session) optionsSnapshot() SessionOptions {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.opts
}

// Submit admits one run of the session through the full shedding
// pipeline and, on acceptance, returns a channel carrying the single
// reply. A nil channel means the request was refused with the returned
// *APIError (429 quota/queue/draining, 404 unknown, 409 quarantined).
// The context carries the request-scoped trace context when the call
// entered through the HTTP edge: the admission pipeline, queue wait
// and execution stages land as children of the request's root span,
// and the per-stage latency histograms observe exactly the admitted
// runs.
func (s *Server) Submit(ctx context.Context, id string, req RunRequest) (<-chan RunReply, error) {
	ri := requestFrom(ctx)
	if req.Inject != "" {
		if _, err := faults.ParseSpec(req.Inject); err != nil {
			return nil, &APIError{Code: 400, Msg: err.Error()}
		}
	}
	sess, ok := s.session(id)
	if !ok {
		return nil, &APIError{Code: 404, Msg: fmt.Sprintf("no session %q", id)}
	}
	sess.c.submitted.Add(1)

	sess.mu.Lock()
	state, reason := sess.state, sess.reason
	sess.mu.Unlock()
	if state == StateQuarantined {
		return nil, &APIError{Code: 409,
			Msg: fmt.Sprintf("session %s is quarantined: %s", id, reason)}
	}

	admitStart := time.Now()
	adSpan := ri.Span().StartChild("admit")
	if !s.admit() {
		adSpan.Annotate("shed", "draining")
		adSpan.End()
		sess.c.shed.Add(1)
		s.c.shedDraining.Add(1)
		return nil, &APIError{Code: 429, Msg: "server draining", RetryAfter: s.cfg.RetryAfter}
	}
	// From here every early exit must undo the drain-barrier claim.
	seq, ok := sess.tryAcquire()
	if !ok {
		s.runs.Done()
		adSpan.Annotate("shed", "quota")
		adSpan.End()
		sess.c.shed.Add(1)
		s.c.shedQuota.Add(1)
		return nil, &APIError{Code: 429,
			Msg: fmt.Sprintf("session %s quota exhausted", id), RetryAfter: s.cfg.RetryAfter}
	}
	reply := make(chan RunReply, 1)
	accepted := s.pool.TrySubmit(func(wait time.Duration) {
		defer s.runs.Done()
		defer sess.release()
		s.lat.queue.Observe(wait)
		qSpan := ri.Span().StartChildAt("queue-wait", time.Now().Add(-wait))
		qSpan.End()
		rep := s.execute(sess, req, seq, ri)
		s.account(sess, &rep)
		reply <- rep
	})
	if !accepted {
		sess.release()
		s.runs.Done()
		adSpan.Annotate("shed", "queue")
		adSpan.End()
		sess.c.shed.Add(1)
		s.c.shedQueue.Add(1)
		return nil, &APIError{Code: 429, Msg: "admission queue full", RetryAfter: s.cfg.RetryAfter}
	}
	adSpan.Annotate("seq", seq)
	adSpan.End()
	s.lat.admit.Observe(time.Since(admitStart))
	s.c.admitted.Add(1)
	return reply, nil
}

// account tallies one finished run into the session and server
// counter blocks.
func (s *Server) account(sess *Session, rep *RunReply) {
	sess.c.completed.Add(1)
	s.c.completed.Add(1)
	switch rep.Status {
	case StatusOK:
		sess.c.ok.Add(1)
		s.c.runsOK.Add(1)
	case StatusTrap:
		sess.c.traps.Add(1)
		s.c.runsTrap.Add(1)
	case StatusTimeout:
		sess.c.timeouts.Add(1)
		s.c.runsTimeout.Add(1)
	case StatusCanceled:
		sess.c.canceled.Add(1)
		s.c.runsCanceled.Add(1)
	case StatusCheckFail:
		s.c.runsCheckFailed.Add(1)
	case StatusPanic:
		s.c.runsPanic.Add(1)
	}
}

// execute performs one admitted run on a worker goroutine. It is the
// panic-isolation boundary: any panic below it — the BeforeRun chaos
// hook, workload init, the output check, or a simulator-core fault
// surfacing as TrapInternal — quarantines the session and still
// produces a structured reply. Each stage lands as a child of the
// request's root span and observes its latency histogram; the run's
// trace (span tree + final counter snapshot) is retained on the
// session for the run-trace endpoint.
func (s *Server) execute(sess *Session, req RunRequest, seq int64, ri *requestInfo) (rep RunReply) {
	started := time.Now()
	rep = RunReply{Session: sess.id, Seq: seq, RequestID: ri.ID()}
	var snap telemetry.Snapshot
	defer func() { // registered first, runs last: rep.Status is final here
		sess.storeTrace(seq, &runTrace{
			reqID:    ri.ID(),
			status:   rep.Status,
			root:     ri.Span(),
			counters: snap,
		})
	}()
	// Every admitted run observes each stage histogram exactly once —
	// the bucket-sum identity the smoke test asserts — so stages a
	// failed or panicking run never reached record a zero sample.
	var compileObserved, execObserved bool
	defer func() {
		if !compileObserved {
			s.lat.compile.Observe(0)
		}
		if !execObserved {
			s.lat.execute.Observe(0)
		}
	}()
	defer func() {
		rep.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
		if r := recover(); r != nil {
			s.c.panics.Add(1)
			sess.quarantine(s, fmt.Sprintf("run %d panicked: %v", seq, r))
			rep.Status = StatusPanic
			rep.Error = fmt.Sprintf("run panicked; session quarantined: %v", r)
		}
	}()
	if hook := s.cfg.BeforeRun; hook != nil {
		hook(sess.id, seq)
	}

	opts := sess.optionsSnapshot()
	deadline := s.cfg.RunDeadline
	if opts.DeadlineMS > 0 {
		deadline = time.Duration(opts.DeadlineMS) * time.Millisecond
	}
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(sess.ctx, deadline)
	defer cancel()

	cSpan := ri.Span().StartChild("compile")
	compileStart := time.Now()
	w, art, hit, err := s.cache.Lookup(sess.workload, sess.params, sess.target)
	cSpan.Annotate("cache_hit", hit)
	cSpan.End()
	s.lat.compile.Observe(time.Since(compileStart))
	compileObserved = true
	if err != nil {
		rep.Status, rep.Error = StatusError, err.Error()
		return rep
	}

	ropts := []runner.Option{
		runner.WithArtifact(art),
		runner.WithStrictMem(opts.StrictMem),
		runner.WithVerify(opts.Verify),
	}
	if opts.WatchdogInstrs > 0 {
		ropts = append(ropts, runner.WithWatchdog(opts.WatchdogInstrs))
	}
	var inj *faults.Injector
	if req.Inject != "" {
		spec, err := faults.ParseSpec(req.Inject)
		if err != nil {
			rep.Status, rep.Error = StatusError, err.Error()
			return rep
		}
		inj = faults.New(spec, req.Seed)
		ropts = append(ropts, runner.WithMachineSetup(func(m *tmsim.Machine) { inj.Arm(m) }))
	}
	eSpan := ri.Span().StartChild("execute")
	execStart := time.Now()
	res, runErr := runner.RunContext(ctx, w, sess.target, ropts...)
	s.lat.execute.Observe(time.Since(execStart))
	execObserved = true
	if res != nil {
		rep.Cycles = res.Stats.Cycles
		rep.Instrs = res.Stats.Instrs
		rep.CPI = res.Stats.CPI()
		rep.OPI = res.Stats.OPI()
		bc := res.Machine.BlockCacheStats()
		rep.BlockCache = &BlockCacheInfo{Translated: bc.Translated, Hits: bc.Hits}
		s.c.bcTranslated.Add(bc.Translated)
		s.c.bcHits.Add(bc.Hits)
		res.Machine.AnnotateSpan(eSpan)
		// The retained run trace carries the final counter snapshot
		// (stall split included) even when the client did not ask for
		// counters in the reply.
		snap = res.Machine.Registry().Snapshot()
	}
	eSpan.End()
	if req.Telemetry {
		rep.Counters = snap
	}
	if inj != nil {
		rep.Faults = len(inj.Events)
	}
	s.classify(sess, runErr, &rep)
	return rep
}

// classify maps a run error onto the reply's status taxonomy.
func (s *Server) classify(sess *Session, runErr error, rep *RunReply) {
	if runErr == nil {
		rep.Status = StatusOK
		return
	}
	rep.Error = runErr.Error()
	var trap *tmsim.TrapError
	if !errors.As(runErr, &trap) {
		// A non-trap error past execution is the failed output check.
		rep.Status = StatusCheckFail
		return
	}
	rep.Trap = &TrapInfo{
		Kind:   trap.Kind.String(),
		Reason: trap.Reason,
		Op:     trap.Op,
		PC:     trap.PC,
		Cycle:  trap.Cycle,
		Issue:  trap.Issue,
	}
	switch trap.Kind {
	case tmsim.TrapCanceled:
		if errors.Is(runErr, context.DeadlineExceeded) {
			rep.Status = StatusTimeout
		} else {
			rep.Status = StatusCanceled
		}
	case tmsim.TrapInternal:
		// A recovered simulator-core panic: the workload is poisoned.
		s.c.panics.Add(1)
		sess.quarantine(s, fmt.Sprintf("run %d hit a simulator-internal panic: %v", rep.Seq, trap.Reason))
		rep.Status = StatusPanic
	default:
		rep.Status = StatusTrap
	}
}
