package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"tm3270/internal/experiments"
	"tm3270/internal/workloads"
)

func quick() workloads.Params {
	p := workloads.Small()
	p.CabacIBits, p.CabacPBits, p.CabacBBits = 3000, 2500, 2000
	return p
}

// TestFigure7Shape runs the whole Figure 7 matrix at test scale and
// checks the paper's qualitative claims that survive downscaling.
func TestFigure7Shape(t *testing.T) {
	rows, err := experiments.Figure7(quick(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows, want 11 (Table 5)", len(rows))
	}
	byName := map[string]experiments.Figure7Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		// D is at least as fast as C (more cache, same frequency) up to
		// small conflict noise.
		if r.RelD < r.RelC*0.93 {
			t.Errorf("%s: D (%.2f) substantially below C (%.2f)", r.Workload, r.RelD, r.RelC)
		}
		// C is faster than B (frequency).
		if r.RelC <= r.RelB {
			t.Errorf("%s: C (%.2f) not above B (%.2f)", r.Workload, r.RelC, r.RelB)
		}
	}
	_, _, d := experiments.Figure7Average(rows)
	if d < 1.0 {
		t.Errorf("average D relative performance %.2f < 1: TM3270 must win", d)
	}
	var buf bytes.Buffer
	experiments.PrintFigure7(&buf, rows)
	for _, want := range []string{"memcpy", "mpeg2_a", "average"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed table missing %q", want)
		}
	}
}

// TestTable3Shape checks the CABAC measurement invariants of Table 3.
func TestTable3Shape(t *testing.T) {
	rows, err := experiments.Table3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if !(rows[0].Field == "I" && rows[1].Field == "P" && rows[2].Field == "B") {
		t.Fatalf("field order %v", rows)
	}
	for _, r := range rows {
		if s := r.Speedup(); s < 1.2 || s > 2.2 {
			t.Errorf("%s: speedup %.2f outside plausible band", r.Field, s)
		}
		if r.RefPerBit() <= r.OptPerBit() {
			t.Errorf("%s: optimized not cheaper", r.Field)
		}
	}
	if !(rows[0].RefPerBit() < rows[1].RefPerBit() && rows[1].RefPerBit() < rows[2].RefPerBit()) {
		t.Errorf("instr/bit ordering I < P < B violated: %.1f %.1f %.1f",
			rows[0].RefPerBit(), rows[1].RefPerBit(), rows[2].RefPerBit())
	}
	var buf bytes.Buffer
	experiments.PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("printed table missing header")
	}
}

// TestStaticTablesRender smoke-tests the static table printers.
func TestStaticTablesRender(t *testing.T) {
	var buf bytes.Buffer
	experiments.Table1(&buf)
	experiments.Table6(&buf)
	out := buf.String()
	for _, want := range []string{"128 32-bit registers", "31",
		"allocate-on-write-miss", "fetch-on-write-miss", "240 MHz", "350 MHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("static tables missing %q", want)
		}
	}
}

// TestFigure1And3AndAblation smoke-tests the remaining generators.
func TestFigure1And3AndAblation(t *testing.T) {
	p := quick()
	var buf bytes.Buffer
	if err := experiments.Figure1(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bytes/instr") {
		t.Error("figure 1 output incomplete")
	}
	buf.Reset()
	if err := experiments.Figure3(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("figure 3 output incomplete")
	}
	buf.Reset()
	if err := experiments.Ablation(&buf, 48, 32); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "me_frac8_pf") {
		t.Error("ablation output incomplete")
	}
}

// TestTable4Renders checks the area/power generator end to end.
func TestTable4Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.Table4(&buf, quick()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"8.08", "0.999", "mp3_synth", "0.8V"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 output missing %q", want)
		}
	}
}

// TestLineSizeSweep pins the capacity/line-size interaction that
// motivated the TM3270's 128-byte lines: at 16 KB the small lines win,
// at 64 KB and 128 KB the large lines win, on a working set larger than
// 16 KB (mpeg2_b at 320x96, 2 frames).
func TestLineSizeSweep(t *testing.T) {
	p := workloads.Small()
	p.Mpeg2W, p.Mpeg2H = 320, 96
	p.Mpeg2Frames = 2
	var buf bytes.Buffer
	if err := experiments.LineSizeSweep(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	verdicts := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[1] == "KB" {
			verdicts[f[0]] = f[4]
		}
	}
	for kb, want := range map[string]string{"16": "no", "64": "yes", "128": "yes"} {
		if got := verdicts[kb]; got != want {
			t.Errorf("%s KB: 128B wins? = %q, want %q", kb, got, want)
		}
	}
	t.Log("\n" + out)
}
