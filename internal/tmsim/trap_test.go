package tmsim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/tmsim"
)

// buildMachine compiles p for tgt over the given image (nil for empty).
func buildMachine(t *testing.T, p *prog.Program, tgt config.Target, image *mem.Func) *tmsim.Machine {
	t.Helper()
	code, err := sched.Schedule(p, tgt)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	if image == nil {
		image = mem.NewFunc()
	}
	enc, err := encode.Encode(code, rm, tmsim.CodeBase)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	m := tmsim.Load(code, rm, enc, image)
	return m
}

// wantTrap runs the machine and requires a TrapError of the given kind.
func wantTrap(t *testing.T, m *tmsim.Machine, kind tmsim.TrapKind) *tmsim.TrapError {
	t.Helper()
	err := m.RunContext(context.Background())
	if err == nil {
		t.Fatalf("run succeeded, want %v trap", kind)
	}
	var trap *tmsim.TrapError
	if !errors.As(err, &trap) {
		t.Fatalf("run returned %T (%v), want *TrapError", err, err)
	}
	if trap.Kind != kind {
		t.Fatalf("trap kind = %v, want %v (%v)", trap.Kind, kind, trap)
	}
	return trap
}

func TestStrictUnmappedLoadTraps(t *testing.T) {
	b := prog.NewBuilder("unmapped_load")
	base, v := b.Reg(), b.Reg()
	b.Ld32D(v, base, 0)
	b.St32D(base, 4, v)
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.StrictMem = true
	m.SetReg(base, 0x4000_0000) // never written
	trap := wantTrap(t, m, tmsim.TrapUnmappedLoad)

	if trap.Addr != 0x4000_0000 {
		t.Errorf("trap addr = %#x, want 0x40000000", trap.Addr)
	}
	if trap.Op != "ld32d" {
		t.Errorf("trap op = %q, want ld32d", trap.Op)
	}
	if len(trap.Recorder) == 0 {
		t.Error("flight recorder is empty")
	} else if last := trap.Recorder[len(trap.Recorder)-1]; last.Index != trap.Index {
		t.Errorf("last recorder entry at instr %d, trap at %d", last.Index, trap.Index)
	}

	var sb strings.Builder
	trap.Dump(&sb)
	dump := sb.String()
	for _, want := range []string{"unmapped-load", "registers:", "flight recorder", "ld32d", "addr    0x40000000"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}
}

func TestStrictMappedLoadRuns(t *testing.T) {
	b := prog.NewBuilder("mapped_load")
	base, v := b.Reg(), b.Reg()
	b.Ld32D(v, base, 0)
	b.St32D(base, 4, v)
	p := b.MustProgram()

	image := mem.NewFunc()
	image.Store(0x2000, 4, 0xdeadbeef)
	m := buildMachine(t, p, config.TM3270(), image)
	m.StrictMem = true
	m.SetReg(base, 0x2000)
	if err := m.RunContext(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := image.Load(0x2004, 4); got != 0xdeadbeef {
		t.Errorf("stored %#x, want 0xdeadbeef", got)
	}
}

// TestStrictPerByteValidity: strict mode tracks write-validity per
// byte, so a load of never-written bytes traps even when it lands on a
// page other writes have already populated (the page-granular check
// this replaces would have let it pass silently).
func TestStrictPerByteValidity(t *testing.T) {
	b := prog.NewBuilder("partial_page_load")
	base, v := b.Reg(), b.Reg()
	b.Ld32D(v, base, 0x40) // same page as the written word, never written
	b.St32D(base, 4, v)
	p := b.MustProgram()

	image := mem.NewFunc()
	image.Store(0x2000, 4, 0xdeadbeef)
	m := buildMachine(t, p, config.TM3270(), image)
	m.StrictMem = true
	m.SetReg(base, 0x2000)
	trap := wantTrap(t, m, tmsim.TrapUnmappedLoad)
	if trap.Addr != 0x2040 {
		t.Errorf("trap addr = %#x, want 0x2040", trap.Addr)
	}
}

func TestStrictNullPageStoreTraps(t *testing.T) {
	b := prog.NewBuilder("null_store")
	base := b.Reg()
	b.St32D(base, 16, base)
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.StrictMem = true
	m.SetReg(base, 0) // null pointer
	trap := wantTrap(t, m, tmsim.TrapUnmappedStore)
	if trap.Addr != 16 {
		t.Errorf("trap addr = %#x, want 0x10", trap.Addr)
	}
}

func TestMMIOWrongWidthTraps(t *testing.T) {
	b := prog.NewBuilder("mmio_width")
	base, v := b.Reg(), b.Reg()
	b.Imm(v, 0x1234)
	b.St16D(base, 0, v) // 16-bit store into a 32-bit register block
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.SetReg(base, prefetch.MMIOBase)
	trap := wantTrap(t, m, tmsim.TrapMMIO)
	if trap.Addr != prefetch.MMIOBase {
		t.Errorf("trap addr = %#x, want MMIOBase", trap.Addr)
	}
}

func TestMMIOWithoutPrefetcherTraps(t *testing.T) {
	b := prog.NewBuilder("mmio_nopf")
	base, v := b.Reg(), b.Reg()
	b.Imm(v, 0x1000)
	b.St32D(base, 0, v)
	p := b.MustProgram()

	// TM3260 has no region prefetcher: configuring one is a bug.
	m := buildMachine(t, p, config.TM3260(), nil)
	m.SetReg(base, prefetch.MMIOBase)
	wantTrap(t, m, tmsim.TrapMMIO)
}

func TestMMIOMisalignedTraps(t *testing.T) {
	b := prog.NewBuilder("mmio_misaligned")
	base, v := b.Reg(), b.Reg()
	b.Ld32D(v, base, 2)
	b.St32D(base, 32, v)
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.SetReg(base, prefetch.MMIOBase)
	wantTrap(t, m, tmsim.TrapMMIO)
}

func TestUnknownLabelTraps(t *testing.T) {
	b := prog.NewBuilder("unknown_label")
	i, cond := b.Reg(), b.Reg()
	b.Imm(i, 0)
	b.Label("loop")
	b.AddI(i, i, 1)
	b.LesI(cond, i, 3)
	b.JmpT(cond, "loop")
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	// Simulate a corrupted label table: the jump's target is gone.
	delete(m.Code.Labels, "loop")
	trap := wantTrap(t, m, tmsim.TrapUnknownLabel)
	if !strings.Contains(trap.Reason, "loop") {
		t.Errorf("reason %q does not name the label", trap.Reason)
	}
}

func TestInternalPanicBecomesTrap(t *testing.T) {
	b := prog.NewBuilder("panic_op")
	a := b.Reg()
	b.AddI(a, a, 1)
	b.AddI(a, a, 2)
	b.St32D(a, 0x2000, a)
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	// Corrupt one scheduled op into an undefined opcode: issuing it
	// panics inside the core, which must surface as a trap snapshot,
	// not a Go panic.
	corrupted := false
	for i := range m.Code.Instrs {
		for s := 0; s < 5 && !corrupted; s++ {
			if op := m.Code.Instrs[i].Slots[s].Op; op != nil {
				op.Opcode = 9999
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Fatal("no op to corrupt")
	}
	trap := wantTrap(t, m, tmsim.TrapInternal)
	if trap.Panic == nil {
		t.Error("trap carries no panic value")
	}
}

func TestContextDeadlineTrapsMidRun(t *testing.T) {
	// An effectively-infinite loop: the context deadline fires long
	// before the instruction-count watchdog, after the loop has issued.
	b := prog.NewBuilder("spin")
	i, cond := b.Reg(), b.Reg()
	b.Imm(i, 0)
	b.Label("loop")
	b.AddI(i, i, 1)
	b.NeqI(cond, i, 0)
	b.JmpT(cond, "loop")
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.MaxInstrs = 1 << 40
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := m.RunContext(ctx)
	var trap *tmsim.TrapError
	if !errors.As(err, &trap) || trap.Kind != tmsim.TrapCanceled {
		t.Fatalf("run returned %v, want TrapCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("trap does not unwrap to context.DeadlineExceeded: %v", err)
	}
	if trap.Issue <= 0 {
		t.Errorf("trap at issue %d, want a mid-run abort (issue > 0)", trap.Issue)
	}
}

func TestRegisterDumpMatchesState(t *testing.T) {
	b := prog.NewBuilder("regdump")
	a, bad := b.Reg(), b.Reg()
	b.Imm(a, 0xabcd0123)
	b.Ld32D(bad, a, 0) // traps in strict mode: 0xabcd0123 is unmapped
	b.St32D(a, 0, bad)
	p := b.MustProgram()

	m := buildMachine(t, p, config.TM3270(), nil)
	m.StrictMem = true
	trap := wantTrap(t, m, tmsim.TrapUnmappedLoad)
	found := false
	for _, v := range trap.Regs {
		if v == 0xabcd0123 {
			found = true
		}
	}
	if !found {
		t.Error("register dump lacks the written value 0xabcd0123")
	}
}
