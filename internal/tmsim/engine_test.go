package tmsim_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/prog"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
)

// split is the cycle accounting of a run: cycles, instructions, issued
// operations and the per-cause stall split.
type split struct{ cycles, instrs, ops, fetch, jump, dmiss, dinfl, dcwb int64 }

func statSplit(m *tmsim.Machine) split {
	s, d := &m.Stats, &m.DC.Stats
	return split{s.Cycles, s.Instrs, s.Ops, s.FetchStalls, s.JumpStalls,
		d.StallMiss, d.StallInFlight, d.StallCWB}
}

// runPinned executes the program and requires the cycle accounting and
// the named registers to equal the pinned values, which were taken
// from the reference interpreter the execution loop replaced.
func runPinned(t *testing.T, p *prog.Program, tgt config.Target, setup func(*tmsim.Machine),
	want split, regs map[prog.VReg]uint32) *tmsim.Machine {
	t.Helper()
	m := buildMachine(t, p, tgt, nil)
	if setup != nil {
		setup(m)
	}
	if err := m.RunContext(context.Background()); err != nil {
		t.Fatalf("%s run: %v", tgt.Name, err)
	}
	if got := statSplit(m); got != want {
		t.Errorf("%s: stat split\n  got  %+v\n  want %+v", tgt.Name, got, want)
	}
	for r, v := range regs {
		if got := m.Reg(r); got != v {
			t.Errorf("%s: v%d = %#x, want %#x", tgt.Name, r, got, v)
		}
	}
	return m
}

// TestCrossBlockDelaySlotRedirect: a translated block ends at its
// jump-carrying instruction by construction, so every taken loop
// branch redirects out of one block while its delay slots execute at
// the head of the next — the redirect state must survive the block
// switch with the architectural results and the cycle/stall split
// unchanged.
func TestCrossBlockDelaySlotRedirect(t *testing.T) {
	var i, acc prog.VReg
	build := func() *prog.Program {
		b := prog.NewBuilder("crossblock")
		var cond prog.VReg
		i, cond, acc = b.Reg(), b.Reg(), b.Reg()
		b.Imm(i, 0)
		b.Imm(acc, 0)
		b.Label("loop")
		b.AddI(i, i, 1)
		b.Add(acc, acc, i)
		b.NeqI(cond, i, 300)
		b.JmpT(cond, "loop")
		b.AddI(acc, acc, 7) // tail: lives in the next block, runs in the delay window
		return b.MustProgram()
	}
	for _, c := range []struct {
		tgt  config.Target
		want split
	}{
		{config.TM3260(), split{cycles: 1852, instrs: 1802, ops: 1203, fetch: 50}},
		{config.TM3270(), split{cycles: 2451, instrs: 2402, ops: 1203, fetch: 49}},
	} {
		p := build()
		m := runPinned(t, p, c.tgt, nil, c.want, map[prog.VReg]uint32{i: 300, acc: 45157})
		bc := m.BlockCacheStats()
		if bc.Translated < 2 {
			t.Errorf("%s: %d blocks translated, want >= 2 (loop + tail)", c.tgt.Name, bc.Translated)
		}
		if bc.Hits < 100 {
			t.Errorf("%s: %d cache hits over 300 iterations, the loop is not reusing its block", c.tgt.Name, bc.Hits)
		}
	}
}

// TestCodeStoresKeepTranslations: the loop executes the compile
// artifact, not the memory image, so a store into the bytes of the
// block being executed writes memory and nothing else — the run keeps
// its results and every block is translated once.
func TestCodeStoresKeepTranslations(t *testing.T) {
	b := prog.NewBuilder("smc")
	i, cond, v, base := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Imm(i, 0)
	b.Imm(v, 0xdead)
	b.Label("loop")
	b.St32D(base, 0, v) // lands on the loop block's own first bytes
	b.AddI(i, i, 1)
	b.NeqI(cond, i, 8)
	b.JmpT(cond, "loop")
	var loopAddr uint32
	m := runPinned(t, b.MustProgram(), config.TM3270(),
		func(m *tmsim.Machine) {
			loopAddr = m.Enc.Addr[m.Code.Labels["loop"]]
			m.SetReg(base, loopAddr)
		},
		split{cycles: 114, instrs: 65, ops: 34, fetch: 49},
		map[prog.VReg]uint32{i: 8, v: 0xdead})
	if bc := m.BlockCacheStats(); bc.Translated != 3 {
		t.Errorf("%d translations, want 3 (entry, loop and tail blocks, each once)", bc.Translated)
	}
	// The stored word must actually be in memory at the code address
	// (stores are big-endian: 0x0000dead ends with byte 0xad).
	if got := m.Mem.ByteAt(loopAddr + 3); got != 0xad {
		t.Errorf("code byte after the store = %#x, want 0xad", got)
	}
}

// strideProgram loads and rewrites one word per 128-byte stride, so
// every iteration misses the data cache.
func strideProgram() *prog.Program {
	b := prog.NewBuilder("stride")
	p, i, cond, v, acc := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Imm(p, 0x10_0000)
	b.Imm(i, 0)
	b.Imm(acc, 0)
	b.Label("loop")
	b.Ld32D(v, p, 0)
	b.Add(acc, acc, v)
	b.St32D(p, 0, acc)
	b.AddI(p, p, 128)
	b.AddI(i, i, 1)
	b.NeqI(cond, i, 200)
	b.JmpT(cond, "loop")
	return b.MustProgram()
}

// TestObservabilityIsPassive: arming the instruction trace, the event
// trace and the profile must not perturb the run — Stats, registers,
// memory and the translation-cache counters equal the unarmed run's —
// and the armed run still executes on the block cache. A short text
// trace (TraceLimit) leaves the event trace whole.
func TestObservabilityIsPassive(t *testing.T) {
	run := func(armed bool) (*tmsim.Machine, *mem.Func, string) {
		image := mem.NewFunc()
		m := buildMachine(t, strideProgram(), config.TM3270(), image)
		var sb strings.Builder
		if armed {
			m.Trace = &sb
			m.TraceLimit = 5
			m.SetEventTrace(telemetry.NewTrace(0))
			m.EnableProfile()
		}
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatalf("armed=%v run: %v", armed, err)
		}
		return m, image, sb.String()
	}
	plain, plainMem, _ := run(false)
	obs, obsMem, text := run(true)

	if plain.Stats != obs.Stats {
		t.Errorf("Stats differ:\n  unarmed %+v\n  armed   %+v", plain.Stats, obs.Stats)
	}
	if plain.RegSnapshot() != obs.RegSnapshot() {
		t.Error("register file differs between the unarmed and armed runs")
	}
	if addr, diff := mem.Diff(plainMem, obsMem, nil); diff {
		t.Errorf("memory differs at %#x", addr)
	}
	pb, ob := plain.BlockCacheStats(), obs.BlockCacheStats()
	if pb != ob {
		t.Errorf("BlockCacheStats differ: unarmed %+v, armed %+v", pb, ob)
	}
	if ob.Translated == 0 {
		t.Error("the armed run translated no blocks: it did not execute on the block cache")
	}

	// The hooks were actually served.
	if obs.Stats.DataStalls == 0 || obs.Stats.FetchStalls == 0 {
		t.Fatalf("program stalls too little to exercise the hooks: %+v", obs.Stats)
	}
	if got := obs.Profile.TotalCycles(); got != obs.Stats.Cycles {
		t.Errorf("profile attributes %d cycles, run took %d", got, obs.Stats.Cycles)
	}
	if got := obs.Profile.Total(telemetry.CauseDataMiss); got != obs.DC.Stats.StallMiss {
		t.Errorf("profile data-miss cycles %d, run stalled %d", got, obs.DC.Stats.StallMiss)
	}
	if lines := strings.Count(text, "\n"); lines != 5 {
		t.Errorf("trace has %d lines, want TraceLimit = 5", lines)
	}
	var issues, redirects int
	for _, e := range obs.Events.Events() {
		switch {
		case e.Cat == "issue":
			issues++
		case e.Name == "redirect":
			redirects++
		}
	}
	if int64(issues) != obs.Stats.Ops {
		t.Errorf("%d issue events, want one per issued operation (%d)", issues, obs.Stats.Ops)
	}
	if int64(redirects) != obs.Stats.Taken {
		t.Errorf("%d redirect events, want one per taken jump (%d)", redirects, obs.Stats.Taken)
	}
}

// TestWatchdogParityMidBlock: the instruction-count watchdog must fire
// at the issue, cycle and PC the reference interpreter reported, even
// when the limit lands in the middle of a translated block.
func TestWatchdogParityMidBlock(t *testing.T) {
	m := buildMachine(t, spinProgram("wd", 0), config.TM3270(), nil)
	m.MaxInstrs = 777 // deliberately not a block or poll boundary
	trap := wantTrap(t, m, tmsim.TrapWatchdog)
	if trap.Issue != 777 || trap.Cycle != 826 || trap.PC != 0x100001c {
		t.Errorf("watchdog fired at issue %d cycle %d pc %#x, want issue 777 cycle 826 pc 0x100001c",
			trap.Issue, trap.Cycle, trap.PC)
	}
}

// TestCancellationParity: a canceled context stops the run with a
// TrapCanceled that unwraps to the context error.
func TestCancellationParity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := buildMachine(t, spinProgram("cancel", 0), config.TM3270(), nil)
	m.MaxInstrs = 1 << 40
	err := m.RunContext(ctx)
	var trap *tmsim.TrapError
	if !errors.As(err, &trap) || trap.Kind != tmsim.TrapCanceled {
		t.Fatalf("canceled run returned %v, want TrapCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("trap does not unwrap to context.Canceled")
	}
}

// TestTrapParityMidBlock: a precise memory trap must surface from the
// middle of a translated block at the address, issue, cycle and PC the
// reference interpreter reported.
func TestTrapParityMidBlock(t *testing.T) {
	b := prog.NewBuilder("trapmid")
	a, v := b.Reg(), b.Reg()
	b.Imm(a, 0x4000_0000)
	b.AddI(a, a, 4)
	b.Ld32D(v, a, 0) // strict mode: unmapped
	b.St32D(a, 4, v)
	m := buildMachine(t, b.MustProgram(), config.TM3270(), nil)
	m.StrictMem = true
	trap := wantTrap(t, m, tmsim.TrapUnmappedLoad)
	if trap.Addr != 0x40000004 || trap.Issue != 2 || trap.Cycle != 51 || trap.PC != 0x1000022 {
		t.Errorf("trap at addr=%#x issue=%d cycle=%d pc=%#x, want addr=0x40000004 issue=2 cycle=51 pc=0x1000022",
			trap.Addr, trap.Issue, trap.Cycle, trap.PC)
	}
}
