package tmsim

import (
	"fmt"
	"io"
	"strings"

	"tm3270/internal/isa"
	"tm3270/internal/sched"
)

// TrapKind classifies a structured execution fault.
type TrapKind int

const (
	// TrapNone is the zero value; a real TrapError never carries it.
	TrapNone TrapKind = iota
	// TrapUnmappedLoad is a load touching a byte never written
	// (strict-memory mode; per-byte write-validity tracking).
	TrapUnmappedLoad
	// TrapUnmappedStore is a store into the reserved null page
	// (strict-memory mode).
	TrapUnmappedStore
	// TrapMMIO is a malformed access to the prefetch register block:
	// wrong width, misaligned, or on a target without the unit.
	TrapMMIO
	// TrapUnknownLabel is a taken jump to a label absent from the code.
	TrapUnknownLabel
	// TrapDelayViolation is a jump taken inside another jump's delay
	// window.
	TrapDelayViolation
	// TrapWatchdog is the MaxInstrs instruction-count watchdog.
	TrapWatchdog
	// TrapInternal is a recovered Go panic inside the simulator core.
	TrapInternal
	// TrapCanceled is a cooperative abort via the run's context
	// (cancellation or context deadline).
	TrapCanceled
)

// String returns the trap kind's diagnostic name.
func (k TrapKind) String() string {
	switch k {
	case TrapUnmappedLoad:
		return "unmapped-load"
	case TrapUnmappedStore:
		return "unmapped-store"
	case TrapMMIO:
		return "mmio-misuse"
	case TrapUnknownLabel:
		return "unknown-label"
	case TrapDelayViolation:
		return "delay-violation"
	case TrapWatchdog:
		return "watchdog"
	case TrapInternal:
		return "internal-panic"
	case TrapCanceled:
		return "canceled"
	}
	return "none"
}

// Record is one flight-recorder entry: an issued VLIW instruction.
type Record struct {
	Cycle int64  // CPU cycle at issue
	Issue int64  // dynamic instruction index
	Index int    // static index into the schedule
	Addr  uint32 // encoded byte address
	Ops   string // mnemonics of the occupied slots
}

// TrapError is a structured execution fault: what went wrong, where the
// machine was, the full architectural register state, and the flight
// recorder's view of the instructions leading up to the fault. It is
// the only error type Machine.Run returns for faults raised inside the
// execution loop, including recovered internal panics.
type TrapError struct {
	Kind   TrapKind
	Kernel string // code name
	Reason string // human-readable fault description

	Cycle int64  // CPU cycle of the faulting instruction
	Issue int64  // dynamic instruction index
	Index int    // static schedule index
	PC    uint32 // encoded byte address of the faulting instruction

	// Addr is the faulting memory address for memory traps.
	Addr uint32
	// Op is the mnemonic of the faulting operation, when known.
	Op string

	// Regs is the architectural register dump at the fault.
	Regs [isa.NumRegs]uint32
	// Recorder is the flight-recorder tail, oldest entry first.
	Recorder []Record

	// Panic holds the recovered value for TrapInternal.
	Panic any

	// Cause is the underlying error for TrapCanceled (the context's
	// Err), exposed through Unwrap so errors.Is sees through the trap.
	Cause error
}

// Unwrap exposes the underlying cause (context cancellation), if any.
func (e *TrapError) Unwrap() error { return e.Cause }

// Error implements error with a one-line summary; Dump gives the full
// diagnostic report.
func (e *TrapError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tmsim %s: trap %s at pc=%#x (instr %d, issue %d, cycle %d)",
		e.Kernel, e.Kind, e.PC, e.Index, e.Issue, e.Cycle)
	if e.Reason != "" {
		fmt.Fprintf(&b, ": %s", e.Reason)
	}
	return b.String()
}

// Dump writes the full diagnostic report: the summary line, the
// register dump and the flight-recorder tail.
func (e *TrapError) Dump(w io.Writer) {
	fmt.Fprintln(w, e.Error())
	if e.Op != "" {
		fmt.Fprintf(w, "  op      %s\n", e.Op)
	}
	if e.Kind == TrapUnmappedLoad || e.Kind == TrapUnmappedStore || e.Kind == TrapMMIO {
		fmt.Fprintf(w, "  addr    %#x\n", e.Addr)
	}
	if e.Panic != nil {
		fmt.Fprintf(w, "  panic   %v\n", e.Panic)
	}
	fmt.Fprintln(w, "  registers:")
	for r := 0; r < isa.NumRegs; r += 8 {
		fmt.Fprintf(w, "    r%-3d", r)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(w, " %08x", e.Regs[r+i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  flight recorder (last %d instructions):\n", len(e.Recorder))
	for _, rec := range e.Recorder {
		fmt.Fprintf(w, "    c%-8d i%-6d @%-5d pc=%#x %s\n",
			rec.Cycle, rec.Issue, rec.Index, rec.Addr, rec.Ops)
	}
}

// memTrap is the internal panic payload busMem raises for memory-system
// faults; Machine.Run's recover converts it into a TrapError.
type memTrap struct {
	kind   TrapKind
	addr   uint32
	reason string
}

// recorder is the flight-recorder ring buffer. Entries are cheap
// (no strings); mnemonics are materialized only when a trap snapshot
// is taken.
type recorder struct {
	buf  []recEntry
	head int // next write position
	n    int // valid entries
}

type recEntry struct {
	cycle int64
	issue int64
	idx   int
}

// DefaultRecorderDepth is the flight-recorder length.
const DefaultRecorderDepth = 32

func newRecorder() *recorder {
	return &recorder{buf: make([]recEntry, DefaultRecorderDepth)}
}

func (r *recorder) record(cycle, issue int64, idx int) {
	r.buf[r.head] = recEntry{cycle: cycle, issue: issue, idx: idx}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// last returns the most recent entry.
func (r *recorder) last() (recEntry, bool) {
	if r.n == 0 {
		return recEntry{}, false
	}
	return r.buf[(r.head-1+len(r.buf))%len(r.buf)], true
}

// instrOps renders the occupied slots of one scheduled instruction.
func instrOps(in *sched.Instr) string {
	var b strings.Builder
	for s := 0; s < 5; s++ {
		so := in.Slots[s]
		if so.Op == nil || so.Second {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		// The snapshot path must never panic, even on corrupted code.
		if info, ok := isa.InfoOK(so.Op.Opcode); ok {
			fmt.Fprintf(&b, "[%d]%s", s+1, info.Name)
		} else {
			fmt.Fprintf(&b, "[%d]op%d?", s+1, so.Op.Opcode)
		}
	}
	if b.Len() == 0 {
		return "(nop)"
	}
	return b.String()
}

// snapshot materializes the flight-recorder tail with mnemonics.
func (m *Machine) snapshotRecorder() []Record {
	if m.rec == nil || m.rec.n == 0 {
		return nil
	}
	out := make([]Record, 0, m.rec.n)
	start := (m.rec.head - m.rec.n + len(m.rec.buf)) % len(m.rec.buf)
	for i := 0; i < m.rec.n; i++ {
		e := m.rec.buf[(start+i)%len(m.rec.buf)]
		rec := Record{Cycle: e.cycle, Issue: e.issue, Index: e.idx}
		if e.idx >= 0 && e.idx < len(m.Code.Instrs) {
			rec.Addr = m.Enc.Addr[e.idx]
			rec.Ops = instrOps(&m.Code.Instrs[e.idx])
		}
		out = append(out, rec)
	}
	return out
}

// trap builds a TrapError snapshot at the given execution point.
func (m *Machine) trap(kind TrapKind, cycle, issue int64, idx int, reason string) *TrapError {
	e := &TrapError{
		Kind:     kind,
		Kernel:   m.Code.Name,
		Reason:   reason,
		Cycle:    cycle,
		Issue:    issue,
		Index:    idx,
		Regs:     m.regs.Snapshot(),
		Recorder: m.snapshotRecorder(),
	}
	if idx >= 0 && idx < len(m.Code.Instrs) {
		e.PC = m.Enc.Addr[idx]
	}
	return e
}
