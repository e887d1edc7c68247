package runner_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// execObserved lists the (workload, target) pairs whose golden entry
// also pins the observability output: the instruction trace text, the
// structured event trace and the per-PC cycle profile.
var execObserved = map[string]bool{
	"mpeg2_b on A":          true,
	"mpeg2_b on D":          true,
	"blockwalk_pf on D":     true,
	"cabac_opt_b on D":      true,
	"memcpy on TM3260":      true,
	"me_frac8_pf on TM3270": true,
}

// execTargets are the processor targets of the execution golden, by
// short label.
var execTargets = []struct {
	label  string
	target func() config.Target
}{
	{"A", config.ConfigA}, {"B", config.ConfigB}, {"C", config.ConfigC},
	{"D", config.ConfigD}, {"TM3260", config.TM3260}, {"TM3270", config.TM3270},
}

// TestExecGolden pins the execution model's complete visible outcome on
// every shipped workload at Small() sizes on every target: trap
// identity, every Stats field, the data cache's stall split, the
// translation-cache counters, and sha256 digests of the final register
// file and memory image. For the execObserved pairs it also pins
// digests of the instruction trace, the event trace JSON and the
// profile cells of a run with all three hooks armed. The file was
// generated by the slot-by-slot interpreter
// that preceded the block-cache execution loop, so it is the loop's
// cycle-exactness reference; rerun with -update only after a
// deliberate timing-model change.
func TestExecGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		for _, et := range execTargets {
			key := name + " on " + et.label
			fmt.Fprintf(&b, "== %s\n", key)
			w, err := workloads.ByName(name, workloads.Small())
			if err != nil {
				t.Fatal(err)
			}
			art, err := runner.CompileWorkload(w, et.target())
			var serr *runner.ScheduleError
			if errors.As(err, &serr) {
				b.WriteString("skipped: not schedulable\n")
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(execRecord(t, art, w, false))
			if execObserved[key] {
				b.WriteString(execRecord(t, art, w, true))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "exec.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("execution outcome changed (rerun with -update if deliberate):\n%s",
			firstDiff(got, string(want)))
	}
}

// execRecord runs one compiled workload and renders its golden lines:
// trap, check, stats, data-cache stall split, translation-cache
// counters and register and memory digests. With observe set, the run
// arms the instruction trace, the event trace and the profile, and
// renders its stats, stall split and their digests instead.
func execRecord(t *testing.T, art *runner.Artifact, w *workloads.Spec, observe bool) string {
	t.Helper()
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			t.Fatalf("%s init: %v", w.Name, err)
		}
	}
	ld := runner.Load(art, image)
	m := ld.Machine
	var text bytes.Buffer
	var events *telemetry.Trace
	var prof *telemetry.Profile
	if observe {
		events = telemetry.NewTrace(0)
		m.SetEventTrace(events)
		prof = m.EnableProfile()
		m.Trace = &text
	}
	for v, val := range w.Args {
		m.SetReg(v, val)
	}
	runErr := ld.RunContext(context.Background())

	var o strings.Builder
	if observe {
		fmt.Fprintf(&o, "observed stats: %+v\n", m.Stats)
		writeDataStalls(&o, m)
		fmt.Fprintf(&o, "trace: %d bytes %x\n", text.Len(), sha256.Sum256(text.Bytes()))
		h := sha256.New()
		if err := events.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&o, "events: %d dropped=%d %x\n", events.Len(), events.Dropped(), h.Sum(nil))
		fmt.Fprintf(&o, "profile: %x\n", profileDigest(prof, len(art.Code.Instrs)))
		return o.String()
	}
	var te *tmsim.TrapError
	switch {
	case runErr == nil:
		o.WriteString("trap: none\n")
	case errors.As(runErr, &te):
		fmt.Fprintf(&o, "trap: %v pc=%#x issue=%d cycle=%d\n", te.Kind, te.PC, te.Issue, te.Cycle)
	default:
		t.Fatalf("%s: non-trap error %v", w.Name, runErr)
	}
	if runErr == nil && w.Check != nil {
		if err := w.Check(image); err != nil {
			fmt.Fprintf(&o, "check: %v\n", err)
		} else {
			o.WriteString("check: ok\n")
		}
	}
	fmt.Fprintf(&o, "stats: %+v\n", m.Stats)
	writeDataStalls(&o, m)
	regs := m.RegSnapshot()
	h := sha256.New()
	for _, r := range regs {
		binary.Write(h, binary.BigEndian, r)
	}
	fmt.Fprintf(&o, "regs: %x\n", h.Sum(nil))
	fmt.Fprintf(&o, "mem: %x\n", memDigest(image))
	fmt.Fprintf(&o, "blockcache: %+v\n", ld.Machine.BlockCacheStats())
	return o.String()
}

// memDigest hashes the populated pages of an image in address order.
func memDigest(image *mem.Func) []byte {
	h := sha256.New()
	for _, a := range image.PageAddrs() {
		binary.Write(h, binary.BigEndian, a)
		h.Write(image.ReadBytes(a, 1<<12))
	}
	return h.Sum(nil)
}

// profileDigest hashes every instruction's per-cause cycle cell.
func profileDigest(p *telemetry.Profile, n int) []byte {
	h := sha256.New()
	for i := 0; i < n; i++ {
		cell := p.Cell(i)
		binary.Write(h, binary.BigEndian, cell[:])
	}
	return h.Sum(nil)
}

// writeDataStalls prints the data cache's split of the core's
// DataStalls by cause.
func writeDataStalls(o *strings.Builder, m *tmsim.Machine) {
	d := &m.DC.Stats
	fmt.Fprintf(o, "dstalls: StallMiss:%d StallInFlight:%d StallCWB:%d\n", d.StallMiss, d.StallInFlight, d.StallCWB)
}
