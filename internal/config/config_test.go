package config_test

import (
	"fmt"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/isa"
)

// TestTable6Characteristics pins the TM3260/TM3270 differences of
// Table 6 of the paper.
func TestTable6Characteristics(t *testing.T) {
	a, d := config.TM3260(), config.TM3270()

	if a.FreqMHz != 240 || d.FreqMHz != 350 {
		t.Errorf("frequencies %d/%d, want 240/350", a.FreqMHz, d.FreqMHz)
	}
	if a.JumpDelaySlots != 3 || d.JumpDelaySlots != 5 {
		t.Errorf("delay slots %d/%d, want 3/5", a.JumpDelaySlots, d.JumpDelaySlots)
	}
	if a.LoadLatency != 3 || d.LoadLatency != 4 {
		t.Errorf("load latency %d/%d, want 3/4", a.LoadLatency, d.LoadLatency)
	}
	if a.MaxLoadsPerInstr != 2 || d.MaxLoadsPerInstr != 1 {
		t.Errorf("loads/instr %d/%d, want 2/1", a.MaxLoadsPerInstr, d.MaxLoadsPerInstr)
	}
	if a.DCache.SizeBytes != 16<<10 || a.DCache.LineBytes != 64 || a.DCache.Ways != 8 {
		t.Errorf("TM3260 D$ %v", a.DCache)
	}
	if d.DCache.SizeBytes != 128<<10 || d.DCache.LineBytes != 128 || d.DCache.Ways != 4 {
		t.Errorf("TM3270 D$ %v", d.DCache)
	}
	if a.DCache.WriteMiss != config.FetchOnWriteMiss {
		t.Error("TM3260 must fetch on write miss")
	}
	if d.DCache.WriteMiss != config.AllocateOnWriteMiss {
		t.Error("TM3270 must allocate on write miss")
	}
	if a.ICache.SizeBytes != 64<<10 || a.ICache.LineBytes != 64 {
		t.Errorf("TM3260 I$ %v", a.ICache)
	}
	if d.ICache.SizeBytes != 64<<10 || d.ICache.LineBytes != 128 || d.ICache.Ways != 8 {
		t.Errorf("TM3270 I$ %v", d.ICache)
	}
	if a.HasTM3270Ops || !d.HasTM3270Ops {
		t.Error("ISA extension availability wrong")
	}
	if a.HasRegionPrefetch || !d.HasRegionPrefetch {
		t.Error("region prefetch availability wrong")
	}
}

func TestFigure7Configs(t *testing.T) {
	b, c := config.ConfigB(), config.ConfigC()
	// B and C: TM3270 design with TM3260 cache capacity.
	for _, tc := range []config.Target{b, c} {
		if tc.DCache.SizeBytes != 16<<10 {
			t.Errorf("%s D$ size %d, want 16K", tc.Name, tc.DCache.SizeBytes)
		}
		if tc.DCache.LineBytes != 128 {
			t.Errorf("%s line size %d, want 128 (TM3270 design)", tc.Name, tc.DCache.LineBytes)
		}
		if tc.DCache.WriteMiss != config.AllocateOnWriteMiss {
			t.Errorf("%s must allocate on write miss", tc.Name)
		}
		if tc.JumpDelaySlots != 5 || tc.LoadLatency != 4 {
			t.Errorf("%s pipeline not TM3270-like", tc.Name)
		}
	}
	if b.FreqMHz != 240 || c.FreqMHz != 350 {
		t.Errorf("B/C frequencies %d/%d", b.FreqMHz, c.FreqMHz)
	}
	if config.ConfigA().Name != config.TM3260().Name || config.ConfigD().FreqMHz != 350 {
		t.Error("A/D aliases wrong")
	}
}

func TestValidate(t *testing.T) {
	for _, tgt := range []config.Target{config.TM3260(), config.TM3270(), config.ConfigB(), config.ConfigC()} {
		if err := tgt.Validate(); err != nil {
			t.Errorf("%s invalid: %v", tgt.Name, err)
		}
	}
	bad := config.TM3270()
	bad.DCache.SizeBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("bogus geometry accepted")
	}
	bad2 := config.TM3270()
	bad2.LoadSlots = 0
	if err := bad2.Validate(); err == nil {
		t.Error("no load slots accepted")
	}
}

func TestOpLatencyPerTarget(t *testing.T) {
	a, d := config.TM3260(), config.TM3270()
	if a.OpLatency(isa.OpLD32D) != 3 || d.OpLatency(isa.OpLD32D) != 4 {
		t.Error("load latencies not target-specific")
	}
	if d.OpLatency(isa.OpLDFRAC8) != 6 {
		t.Errorf("ld_frac8 latency %d, want 6 (X1..X6)", d.OpLatency(isa.OpLDFRAC8))
	}
	if d.OpLatency(isa.OpIADD) != 1 || d.OpLatency(isa.OpIMUL) != 3 {
		t.Error("ALU/mul latencies wrong")
	}
}

func TestSupports(t *testing.T) {
	a, d := config.TM3260(), config.TM3270()
	for _, op := range []isa.Opcode{isa.OpSUPERDUALIMIX, isa.OpSUPERLD32R,
		isa.OpSUPERCABACCTX, isa.OpSUPERCABACSTR, isa.OpLDFRAC8} {
		if a.Supports(op) {
			t.Errorf("TM3260 claims to support %v", op)
		}
		if !d.Supports(op) {
			t.Errorf("TM3270 does not support %v", op)
		}
	}
	if !a.Supports(isa.OpIADD) || !a.Supports(isa.OpLD32D) {
		t.Error("TM3260 must support the base ISA")
	}
}

func TestMemoryTimingMonotonicity(t *testing.T) {
	d := config.TM3270()
	if d.CyclesPerLine(128) <= 0 {
		t.Error("line transfer cost must be positive")
	}
	// Higher CPU frequency means more CPU cycles per (fixed-speed) bus
	// transfer.
	b := config.ConfigB() // 240 MHz
	if d.CyclesPerLine(128) <= b.CyclesPerLine(128) {
		t.Error("350 MHz core must see more cycles per transfer than 240 MHz")
	}
}

// TestByName pins the accepted target names: A-D and the two processor
// names, in any case; anything else is an error naming the input.
func TestByName(t *testing.T) {
	cases := []struct {
		in   string
		want string // Target.Name; "" = rejected
	}{
		{"A", config.ConfigA().Name},
		{"a", config.ConfigA().Name},
		{"TM3260", config.ConfigA().Name},
		{"tm3260", config.ConfigA().Name},
		{"B", config.ConfigB().Name},
		{"b", config.ConfigB().Name},
		{"C", config.ConfigC().Name},
		{"c", config.ConfigC().Name},
		{"D", config.ConfigD().Name},
		{"d", config.ConfigD().Name},
		{"TM3270", config.ConfigD().Name},
		{"Tm3270", config.ConfigD().Name},
		{"", ""},
		{"E", ""},
		{"tm3270x", ""},
		{" D", ""},
	}
	for _, c := range cases {
		got, err := config.ByName(c.in)
		if c.want == "" {
			want := fmt.Sprintf("unknown target %q (want A-D, TM3260 or TM3270)", c.in)
			if err == nil || err.Error() != want {
				t.Errorf("ByName(%q) = %q, %v; want error %q", c.in, got.Name, err, want)
			}
			continue
		}
		if err != nil || got.Name != c.want {
			t.Errorf("ByName(%q) = %q, %v; want %q", c.in, got.Name, err, c.want)
		}
	}
}
