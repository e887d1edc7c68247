// Package binverify is the whole-program static verifier for decoded
// TM3270 binaries. The TM3270 pipeline has no register interlocks and a
// template-compressed encoding, so the correctness of a binary rests
// entirely on static properties: latency-safe schedules, legal
// slot/unit placement, well-paired two-slot operations and jump targets
// that land on decodable instruction boundaries. The scheduler's own
// sched.Verify checks its intra-block vreg IR; this package re-derives
// the hardware contract independently, over the machine code the
// simulator actually executes ([]encode.DecInstr), and — unlike the
// drain rule — propagates in-flight register writes *across* block
// boundaries (join over predecessors), so it also accepts and checks
// code no TriMedia compiler would emit.
//
// Analyses:
//
//   - exposed-pipeline latency hazards: a register read before its
//     in-flight write commits, across arbitrary control flow
//   - WAW ordering: a write committing at or before an earlier write
//   - slot/unit legality per isa.SlotMask (and the target's load-issue
//     restrictions), two-slot pairing (extension halves adjacent)
//   - register-file write-port pressure (at most 5 commits per cycle)
//   - writes to the hardwired registers r0/r1
//   - jump targets on instruction boundaries, jump-delay-window overlap
//   - may-uninitialized register reads and unreachable instructions
//
// Findings are structured diagnostics (PC, slot, opcode, check name) in
// the spirit of tmsim.TrapError, never Go errors or panics: malformed-
// but-decodable code is the expected input.
package binverify

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warn marks findings that may fault or depend on dynamic state
	// (possibly-uninitialized reads, unreachable code, conditional
	// delay-window overlap).
	Warn Severity = iota
	// Error marks definite violations of the hardware contract: the
	// binary reads stale values, traps, or misuses the issue slots on
	// every execution that reaches the finding.
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Checks reported by the verifier, in Diag.Check.
const (
	CheckOpcode      = "opcode"       // undefined opcode in the stream
	CheckPair        = "pair"         // two-slot pairing violations
	CheckEncoding    = "encoding"     // non-canonical unused encoding fields
	CheckSlot        = "slot"         // op issued in an illegal slot
	CheckUnsupported = "unsupported"  // op the target does not implement
	CheckLoadIssue   = "load-issue"   // too many loads in one instruction
	CheckHardwired   = "hardwired"    // write to r0/r1
	CheckLatency     = "latency"      // read before the write commits
	CheckWAW         = "waw"          // write-after-write order violation
	CheckWBPorts     = "wb-ports"     // >5 register commits in one cycle
	CheckJumpTarget  = "jump-target"  // target not on an instr boundary
	CheckDelayWindow = "delay-window" // overlapping/truncated jump windows
	CheckUninit      = "uninit"       // may-uninitialized register read
	CheckUnreachable = "unreachable"  // instruction no path reaches
	CheckMemRange    = "mem-range"    // access provably outside the memory map
	CheckDeadGuard   = "dead-guard"   // guard provably false: the op is dead
	CheckLoopBound   = "loop-bound"   // loop with no inferable/annotated bound
)

// Diag is one structured finding, locatable in the binary: the
// instruction index and byte address (PC), the issue slot and mnemonic
// when the finding concerns one operation, the analysis that fired and
// a human-readable message.
type Diag struct {
	Index    int    // instruction index in the decoded stream
	PC       uint32 // byte address of the instruction
	Slot     int    // 1-based issue slot; 0 for instruction-level findings
	Op       string // mnemonic, when the finding concerns one operation
	Check    string // which analysis fired (Check* constants)
	Severity Severity
	Msg      string
}

// String renders the diagnostic on one line.
func (d *Diag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: pc=%#x instr %d", d.Severity, d.PC, d.Index)
	if d.Slot > 0 {
		fmt.Fprintf(&b, " slot %d", d.Slot)
	}
	if d.Op != "" {
		fmt.Fprintf(&b, " %s", d.Op)
	}
	fmt.Fprintf(&b, " [%s]: %s", d.Check, d.Msg)
	return b.String()
}

// Report is the outcome of one verification run.
type Report struct {
	Diags []Diag
}

// Errors counts the Error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for i := range r.Diags {
		if r.Diags[i].Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts the Warn-severity diagnostics.
func (r *Report) Warnings() int { return len(r.Diags) - r.Errors() }

// Clean reports whether the binary passed with no findings at all.
func (r *Report) Clean() bool { return len(r.Diags) == 0 }

// Write renders every diagnostic, one per line.
func (r *Report) Write(w io.Writer) {
	for i := range r.Diags {
		fmt.Fprintln(w, r.Diags[i].String())
	}
}

func (r *Report) add(d Diag) { r.Diags = append(r.Diags, d) }

// Options tunes a verification run.
type Options struct {
	// EntryDefined lists the registers holding meaningful values at
	// kernel entry (the argument registers); r0/r1 are always defined.
	// When non-nil the may-uninitialized-read analysis runs; nil means
	// the entry contract is unknown and the analysis is skipped.
	EntryDefined []isa.Reg

	// EntryValues gives the concrete 32-bit value of entry registers
	// (the workload's arguments): the seeds of the value-range analysis.
	// Setting it (even empty) enables the semantic layer — interval
	// analysis, dead-guard detection and loop-bound inference.
	EntryValues map[isa.Reg]uint32

	// MemMap declares the address ranges the kernel may touch. When
	// non-empty, the range analysis flags loads/stores whose address
	// interval is provably disjoint from every region (CheckMemRange).
	MemMap []mem.Region

	// LoopBounds maps a loop-header byte address to the maximum number
	// of times control enters it per run: the annotation escape hatch
	// for loops whose trip count inference cannot derive.
	LoopBounds map[uint32]int
}

// semantic reports whether the abstract-interpretation layer (ranges,
// dead guards, loop bounds) should run. It is opt-in via EntryValues /
// MemMap / LoopBounds so that structural-only callers (the fuzzers, the
// differential campaign over generated programs) keep their baseline
// "clean means clean" contract.
func (o *Options) semantic() bool {
	return o != nil && (o.EntryValues != nil || o.MemMap != nil || o.LoopBounds != nil)
}

// Verify runs every analysis over a decoded binary for the given
// target. It never panics and never returns a Go error: all findings,
// including structural ones, are diagnostics in the report.
func Verify(dec []encode.DecInstr, t *config.Target, opts *Options) *Report {
	v := newVerifier(dec, t, opts)
	if len(dec) > 0 {
		v.run()
	}
	sort.SliceStable(v.rep.Diags, func(i, j int) bool {
		a, b := &v.rep.Diags[i], &v.rep.Diags[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return a.Check < b.Check
	})
	return v.rep
}

// vop is the verifier's view of one operation: the decoded slot fields
// fused with the ISA metadata, two-slot halves joined.
type vop struct {
	slot   int // 1-based first issue slot
	oc     isa.Opcode
	info   *isa.OpInfo
	guard  isa.Reg
	srcs   []isa.Reg
	dests  []isa.Reg
	imm    uint32 // sign-extended immediate, when info.HasImm
	target uint32 // jump target byte address
}

// mn returns the mnemonic for diagnostics.
func (v *vop) mn() string { return v.info.Name }

type verifier struct {
	dec  []encode.DecInstr
	t    *config.Target
	rep  *Report
	opts *Options

	ops   [][]vop // fused operations per instruction
	succ  [][]int // CFG successor instruction indices (len(dec) = exit)
	preds [][]int // reverse CFG, built on demand by the semantic layer
	reach []bool
	jumps []jumpRef

	uninitOn     bool
	entryDefined regSet

	// Semantic-layer results (nil/empty until the passes run).
	dom    []bitset      // dom[i]: nodes dominating i (reachable nodes only)
	loops  []*loop       // natural loops, merged by header
	ranges []*rangeState // per-node register intervals at entry (nil: top)

	rangeCap     int  // worklist iterations before a range pass gives up
	rangesCapped bool // a range pass gave up: v.ranges is all top
}

func newVerifier(dec []encode.DecInstr, t *config.Target, opts *Options) *verifier {
	v := &verifier{dec: dec, t: t, rep: &Report{}, opts: opts, rangeCap: maxRangeIterations}
	if opts != nil && opts.EntryDefined != nil {
		v.uninitOn = true
		for _, r := range opts.EntryDefined {
			if r.Valid() {
				v.entryDefined.add(r)
			}
		}
	}
	return v
}

func (v *verifier) run() {
	v.extract()
	v.checkCanonical()
	v.checkStructure()
	v.jumps = v.analyzeJumps()
	v.buildCFG(v.jumps)
	v.checkReachability()
	v.dataflow()
	v.checkWritePorts()
	if v.opts.semantic() {
		v.semantic()
	}
}

// semantic runs the abstract-interpretation layer: dominators, natural
// loops, the interval fixpoint, loop-bound inference, and the checks
// built on them (mem-range, dead-guard, loop-bound).
func (v *verifier) semantic() {
	v.buildPreds()
	v.dominators()
	v.findLoops()
	v.rangeFixpoint(nil)                  // widen induction candidates to top
	v.inferLoopBounds()                   // needs entry-edge intervals from the first pass
	v.rangeFixpoint(v.boundedWidenings()) // re-run with per-loop clamps
	v.checkRanges()
	v.checkLoopBounds()
}

func (v *verifier) diag(idx, slot int, op, check string, sev Severity, format string, args ...any) {
	v.rep.add(Diag{
		Index:    idx,
		PC:       v.dec[idx].Addr,
		Slot:     slot,
		Op:       op,
		Check:    check,
		Severity: sev,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// extract fuses each instruction's decoded slots into vops, reporting
// pairing and opcode-validity findings along the way.
func (v *verifier) extract() {
	v.ops = make([][]vop, len(v.dec))
	for i := range v.dec {
		in := &v.dec[i]
		for s := 0; s < 5; s++ {
			d := in.Slots[s]
			if d == nil {
				continue
			}
			if d.IsExt() {
				// A consumed extension half is skipped by the s++ below;
				// reaching one here means no two-slot main precedes it.
				v.diag(i, s+1, "ext", CheckPair, Error,
					"extension half without a two-slot operation in slot %d", s)
				continue
			}
			info, ok := isa.InfoOK(isa.Opcode(d.Opcode))
			if !ok {
				// Decode validates opcodes, so this only fires on decoded
				// streams built by hand; report instead of panicking.
				v.diag(i, s+1, fmt.Sprintf("op%d", d.Opcode), CheckOpcode, Error,
					"undefined opcode %d", d.Opcode)
				continue
			}
			if isa.Opcode(d.Opcode) == isa.OpNOP {
				continue
			}
			op := vop{slot: s + 1, oc: isa.Opcode(d.Opcode), info: info,
				guard: d.Guard, imm: d.Imm, target: d.Target}
			for k := 0; k < info.NSrc && k < 2; k++ {
				op.srcs = append(op.srcs, [2]isa.Reg{d.S1, d.S2}[k])
			}
			if info.NDest > 0 {
				op.dests = append(op.dests, d.D)
			}
			if info.TwoSlot {
				if s+1 >= 5 || in.Slots[s+1] == nil || !in.Slots[s+1].IsExt() {
					v.diag(i, s+1, info.Name, CheckPair, Error,
						"two-slot %s lacks its extension half in slot %d", info.Name, s+2)
				} else {
					ext := in.Slots[s+1]
					if info.NSrc > 2 {
						op.srcs = append(op.srcs, ext.S1)
					}
					if info.NSrc > 3 {
						op.srcs = append(op.srcs, ext.S2)
					}
					if info.NDest > 1 {
						op.dests = append(op.dests, ext.D)
					}
					s++ // extension half consumed
				}
			}
			v.ops[i] = append(v.ops[i], op)
		}
	}
}

// slotMask returns the issue slots op may legally occupy on the target
// (the first slot of the pair for two-slot operations).
func (v *verifier) slotMask(op *vop) isa.SlotMask {
	if op.info.Class == isa.UnitLoad {
		return v.t.LoadSlots
	}
	return isa.DefaultSlots(op.info.Class)
}

func maskString(m isa.SlotMask) string {
	var b strings.Builder
	for s := 1; s <= 5; s++ {
		if m.Has(s) {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
	}
	return "{" + b.String() + "}"
}

// checkStructure runs the per-instruction checks: target support, slot
// legality, load-issue width and hardwired-register writes.
func (v *verifier) checkStructure() {
	for i := range v.dec {
		loads := 0
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if !v.t.Supports(op.oc) {
				v.diag(i, op.slot, op.mn(), CheckUnsupported, Error,
					"%s is not implemented by target %s", op.mn(), v.t.Name)
			}
			mask := v.slotMask(op)
			if !mask.Has(op.slot) {
				what := "issue"
				if op.info.TwoSlot {
					what = "start its slot pair"
				}
				v.diag(i, op.slot, op.mn(), CheckSlot, Error,
					"%s (unit %s) may not %s in slot %d (legal slots %s)",
					op.mn(), op.info.Class, what, op.slot, maskString(mask))
			}
			if op.info.IsLoad {
				loads++
			}
			for _, d := range op.dests {
				if d.Hardwired() {
					v.diag(i, op.slot, op.mn(), CheckHardwired, Error,
						"writes hardwired register %s (the write is silently dropped)", d)
				}
			}
		}
		if loads > v.t.MaxLoadsPerInstr {
			v.diag(i, 0, "", CheckLoadIssue, Error,
				"%d loads in one instruction; target %s issues at most %d",
				loads, v.t.Name, v.t.MaxLoadsPerInstr)
		}
	}
}
