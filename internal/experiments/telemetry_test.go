package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/experiments"
	"tm3270/internal/faults"
	"tm3270/internal/mem"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// buildMachine assembles a ready-to-run machine for a registry workload
// (the experiments.Run pipeline, stopped before Run so telemetry can be
// armed first).
func buildMachine(t *testing.T, name string, p workloads.Params, tgt config.Target) *tmsim.Machine {
	t.Helper()
	w, err := workloads.ByName(name, p)
	if err != nil {
		t.Fatal(err)
	}
	code, err := sched.Schedule(w.Prog, tgt)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := regalloc.Allocate(w.Prog)
	if err != nil {
		t.Fatal(err)
	}
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := encode.Encode(code, rm, tmsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := tmsim.Load(code, rm, enc, image)
	for v, val := range w.Args {
		m.SetReg(v, val)
	}
	return m
}

// TestSnapshotDeterminism runs the same seeded fault-injected workload
// twice and requires bit-identical counter snapshots: the telemetry
// layer must not perturb the simulation, and the simulation must stay
// deterministic under it.
func TestSnapshotDeterminism(t *testing.T) {
	p := workloads.Small()
	spec, err := faults.ParseSpec("busdelay:0.05:7")
	if err != nil {
		t.Fatal(err)
	}
	run := func() telemetry.Snapshot {
		m := buildMachine(t, "blockwalk_pf", p, config.ConfigD())
		inj := faults.New(spec, 42)
		inj.Arm(m)
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return m.Registry().Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded snapshots differ:\n%v\n%v", a, b)
	}
	if a.Get("sim.cycles") == 0 || a.Get("prefetch.issued") == 0 {
		t.Fatalf("degenerate snapshot: %v", a)
	}
}

// TestStallIdentity checks the cycle-accounting invariant on both write
// -miss policies: the disjoint per-cause stall counters sum exactly to
// cycles minus issue cycles, and the tmsim splits reconcile with their
// totals.
func TestStallIdentity(t *testing.T) {
	p := workloads.Small()
	for _, tgt := range []config.Target{config.ConfigA(), config.ConfigD()} {
		names := []string{"memcpy", "mpeg2_b", "majority_sel", "blockwalk"}
		if tgt.HasRegionPrefetch {
			// The MMIO-programmed variant traps on targets without the
			// region prefetcher.
			names = append(names, "blockwalk_pf")
		}
		for _, name := range names {
			m := buildMachine(t, name, p, tgt)
			if err := m.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			s := m.Stats
			if got := s.DataMissStalls + s.DataInFlightStalls + s.DataCWBStalls; got != s.DataStalls {
				t.Errorf("%s on %s: data stall split sums to %d, total %d",
					name, tgt.Name, got, s.DataStalls)
			}
			if s.JumpStalls > s.FetchStalls {
				t.Errorf("%s on %s: jump stalls %d exceed fetch stalls %d",
					name, tgt.Name, s.JumpStalls, s.FetchStalls)
			}
			snap := m.Registry().Snapshot()
			if got, want := snap.Sum(tmsim.StallCounterNames...), s.Cycles-s.Instrs; got != want {
				t.Errorf("%s on %s: per-cause stall counters sum to %d, want cycles-instrs = %d",
					name, tgt.Name, got, want)
			}
			// The dcache's own cause accounting must agree with what the
			// core attributed.
			if got := m.DC.Stats.StallTotal(); got != s.DataStalls {
				t.Errorf("%s on %s: dcache stall causes sum to %d, core saw %d",
					name, tgt.Name, got, s.DataStalls)
			}
		}
	}
}

// TestProfileReconciles requires the cycle-attribution profile to
// account for every cycle of the run, per cause.
func TestProfileReconciles(t *testing.T) {
	p := workloads.Small()
	for _, name := range []string{"mpeg2_b", "blockwalk_pf"} {
		m := buildMachine(t, name, p, config.ConfigD())
		prof := m.EnableProfile()
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := prof.TotalCycles(); got != m.Stats.Cycles {
			t.Errorf("%s: profile attributes %d cycles, run took %d", name, got, m.Stats.Cycles)
		}
		if got := prof.Total(telemetry.CauseExecute); got != m.Stats.Instrs {
			t.Errorf("%s: execute cycles %d, instrs %d", name, got, m.Stats.Instrs)
		}
		fetch := prof.Total(telemetry.CauseFetch) + prof.Total(telemetry.CauseJump)
		if fetch != m.Stats.FetchStalls {
			t.Errorf("%s: profiled fetch stalls %d, stats %d", name, fetch, m.Stats.FetchStalls)
		}
		data := prof.Total(telemetry.CauseDataMiss) +
			prof.Total(telemetry.CauseDataInFlight) + prof.Total(telemetry.CauseDataCWB)
		if data != m.Stats.DataStalls {
			t.Errorf("%s: profiled data stalls %d, stats %d", name, data, m.Stats.DataStalls)
		}
		if len(prof.TopN(5)) == 0 {
			t.Errorf("%s: no hotspots", name)
		}
	}
}

// TestEventTraceRoundTrip runs with the structured trace armed and
// requires a valid Chrome trace-event array with monotonic timestamps
// that survives encoding/json.
func TestEventTraceRoundTrip(t *testing.T) {
	p := workloads.Small()
	// Config A exercises fetch-on-write-miss (CWB parking events);
	// config D exercises prefetch fills.
	for _, tgt := range []config.Target{config.ConfigA(), config.ConfigD()} {
		m := buildMachine(t, "mpeg2_b", p, tgt)
		tr := telemetry.NewTrace(0)
		m.SetEventTrace(tr)
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var events []telemetry.Event
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s: trace is not a valid JSON event array: %v", tgt.Name, err)
		}
		if len(events) < 100 {
			t.Fatalf("%s: suspiciously small trace (%d events)", tgt.Name, len(events))
		}
		var last int64 = -1
		kinds := map[string]bool{}
		for _, e := range events {
			if e.Ph == "M" {
				continue
			}
			if e.TS < last {
				t.Fatalf("%s: ts %d after %d: not monotonic", tgt.Name, e.TS, last)
			}
			last = e.TS
			kinds[e.Cat] = true
		}
		for _, want := range []string{"issue", "bus"} {
			if !kinds[want] {
				t.Errorf("%s: no %q events in trace", tgt.Name, want)
			}
		}
	}
}

// TestBenchJSON builds the quick-mode machine-readable bench report,
// writes it, and re-reads it through the schema check.
func TestBenchJSON(t *testing.T) {
	p := workloads.Small()
	rep, err := experiments.BenchJSON(p, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(experiments.BenchWorkloadNames()) {
		t.Errorf("report has %d workloads, want %d",
			len(rep.Workloads), len(experiments.BenchWorkloadNames()))
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := experiments.WriteBenchJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := experiments.ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report does not survive the disk round-trip")
	}

	// A corrupted counter must fail the schema check.
	back.Workloads[0].Counters["stall.jump"] += 7
	if err := back.Validate(); err == nil {
		t.Error("validation accepted a broken stall identity")
	}
}
