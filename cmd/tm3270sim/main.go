// Command tm3270sim runs one workload on one processor configuration
// and prints the full execution report: instruction/cycle counts, OPI,
// CPI, stall breakdown, cache and bus statistics, code size, estimated
// wall-clock time and the power-model evaluation.
//
// A trap (unmapped access, MMIO misuse, watchdog, -deadline expiry,
// internal fault) prints a structured diagnostic — PC, cycle, register
// dump and the flight-recorder tail — instead of a Go panic trace. The
// -inject flag arms a seeded fault injector (see internal/faults)
// against the run.
//
// Observability: -stats-json dumps the unified counter registry as one
// JSON object of dotted names; -trace-json writes a Chrome trace-event
// file (open it in https://ui.perfetto.dev) with per-slot issue events,
// stall intervals by cause, cache miss/refill/prefetch/CWB events and
// bus occupancy; -profile N prints the top-N per-PC cycle-attribution
// hotspots (execute vs fetch-stall vs jump-penalty vs data-stall
// cycles, the data side split by cause).
//
// The -verify flag gates the run on internal/binverify: the encoded
// image is decoded back and statically verified (latency hazards, slot
// legality, jump targets, ...) before the first cycle executes; any
// error-severity diagnostic refuses the run.
//
// The execution knobs all route through the runner's per-run options
// (WithWatchdog, WithStrictMem, WithMachineSetup) — the same API the
// batch runner and the public tm3270.RunContext use; the event trace
// and profile are armed on the machine in its setup hook, and the
// counter dump reads the returned machine's registry. -deadline
// is not one of them: it is a context.WithTimeout around the run, whose
// expiry traps as "canceled" (the run's context is its only wall-clock
// bound).
//
// Usage:
//
//	tm3270sim [-config A|B|C|D|tm3260|tm3270] [-full] [-list] [-verify]
//	          [-cosim] [-inject kind[:rate[:delay]]] [-seed n] [-deadline d]
//	          [-strict] [-watchdog n] [-stats-json file] [-trace-json file]
//	          [-profile n] <workload>
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/faults"
	"tm3270/internal/power"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

func kindList() string {
	var names []string
	for _, k := range faults.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

func main() {
	cfg := flag.String("config", "D", "target: A, B, C, D, tm3260 or tm3270")
	full := flag.Bool("full", false, "paper-scale workload sizes (default: small)")
	list := flag.Bool("list", false, "list workload names")
	traceN := flag.Int64("trace", 0, "print an issue trace of the first N instructions")
	inject := flag.String("inject", "", "fault injector spec kind[:rate[:delay]] (kinds: "+kindList()+")")
	seed := flag.Int64("seed", 1, "fault injector seed")
	deadline := flag.Duration("deadline", 0, "wall-clock timeout of the run's context; expiry traps as canceled (0 = none)")
	strict := flag.Bool("strict", false, "trap on unmapped loads and null-page stores")
	watchdog := flag.Int64("watchdog", 0, "instruction-count watchdog (0 = default)")
	verify := flag.Bool("verify", false, "statically verify the decoded binary before running (exit on errors)")
	cosimRun := flag.Bool("cosim", false, "co-simulate against the architectural reference model and diff final state")
	statsJSON := flag.String("stats-json", "", "write the counter registry snapshot as JSON (\"-\" = stdout)")
	traceJSON := flag.String("trace-json", "", "write a Perfetto-loadable trace-event JSON file")
	profileN := flag.Int("profile", 0, "print the top-N cycle-attribution hotspots")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tm3270sim [-config D] [-full] <workload>")
		os.Exit(2)
	}

	tgt, err := config.ByName(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfg)
		os.Exit(2)
	}

	p := workloads.Small()
	if *full {
		p = workloads.Full()
	}
	w, err := workloads.ByName(flag.Arg(0), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cosimRun {
		res, err := cosim.RunWorkload(w, tgt, cosim.Options{MaxInstrs: *watchdog})
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		case res == nil:
			fmt.Printf("cosim: %s does not schedule on %s; skipped\n", w.Name, tgt.Name)
		case res.Div != nil:
			fmt.Fprintf(os.Stderr, "cosim: %s on %s DIVERGED: %s\n", w.Name, tgt.Name, res.Div)
			os.Exit(1)
		default:
			fmt.Printf("cosim: %s on %s agrees over %d instructions\n", w.Name, tgt.Name, res.Instrs)
		}
		return
	}

	art, err := runner.CompileWorkload(w, tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verify {
		// Pre-run gate: decode the encoded image back and statically
		// verify the machine code the simulator is about to execute.
		rep, err := art.VerifyStatic(&tgt, art.VerifyOptions(w))
		if rep != nil {
			rep.Write(os.Stderr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; refusing to run\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "verify: ok (%d instructions, %d warnings)\n",
			art.SchedInstrs(), rep.Warnings())
	}

	var inj *faults.Injector
	if *inject != "" {
		spec, err := faults.ParseSpec(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		inj = faults.New(spec, *seed)
	}

	// The event trace and profile are armed on the machine; like its
	// counters they are filled even when the run traps, so the
	// machine-readable dumps stay available for fault forensics.
	var events *telemetry.Trace
	if *traceJSON != "" {
		events = telemetry.NewTrace(0)
	}
	var prof *telemetry.Profile

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	res, runErr := runner.RunContext(ctx, w, tgt,
		runner.WithArtifact(art),
		runner.WithWatchdog(*watchdog),
		runner.WithStrictMem(*strict),
		runner.WithMachineSetup(func(m *tmsim.Machine) {
			if events != nil {
				m.SetEventTrace(events)
			}
			if *profileN > 0 {
				prof = m.EnableProfile()
			}
			if *traceN > 0 {
				m.Trace = os.Stdout
				m.TraceLimit = *traceN
			}
			if inj != nil {
				inj.Arm(m)
			}
		}))
	if res == nil {
		// Failed before a machine existed (init error).
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}

	// When a machine-readable dump targets stdout ("-"), keep stdout
	// pure JSON and divert the human-readable report to stderr.
	out := io.Writer(os.Stdout)
	if *statsJSON == "-" || *traceJSON == "-" {
		out = os.Stderr
	}

	if inj != nil {
		for _, e := range inj.Events {
			fmt.Fprintf(out, "injected    %s\n", e.Info)
		}
	}
	// The trace and counter dumps are debugging artifacts: emit them
	// even when the run trapped, so the events leading to the fault are
	// inspectable in Perfetto.
	if events != nil {
		if err := writeFile(*traceJSON, events.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *statsJSON != "" {
		if err := writeFile(*statsJSON, res.Machine.Registry().Snapshot().WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		var trap *tmsim.TrapError
		if errors.As(runErr, &trap) {
			trap.Dump(os.Stderr)
		} else {
			fmt.Fprintln(os.Stderr, runErr)
		}
		os.Exit(1)
	}
	s := res.Stats
	m := res.Machine

	fmt.Fprintf(out, "workload    %s (%s)\n", w.Name, w.Description)
	fmt.Fprintf(out, "target      %s @ %d MHz\n", tgt.Name, tgt.FreqMHz)
	bc := m.BlockCacheStats()
	fmt.Fprintf(out, "blockcache  %d blocks translated, %d hits\n", bc.Translated, bc.Hits)
	fmt.Fprintf(out, "code        %d VLIW instructions, %d bytes (%.1f B/instr), %d source ops\n",
		art.SchedInstrs(), art.CodeBytes(),
		float64(art.CodeBytes())/float64(art.SchedInstrs()), art.Code.SrcOps)
	fmt.Fprintf(out, "executed    %d instrs, %d ops (%d guarded off)\n",
		s.Instrs, s.Ops, s.Ops-s.ExecOps)
	fmt.Fprintf(out, "cycles      %d  (CPI %.3f, OPI %.2f)\n", s.Cycles, s.CPI(), s.OPI())
	fmt.Fprintf(out, "stalls      fetch %d, data %d\n", s.FetchStalls, s.DataStalls)
	fmt.Fprintf(out, "jumps       %d executed, %d taken\n", s.Jumps, s.Taken)
	fmt.Fprintf(out, "dcache      %d/%d load hit/miss, %d/%d store hit/miss, %d merges, %d copybacks\n",
		m.DC.Stats.LoadHits, m.DC.Stats.LoadMisses,
		m.DC.Stats.StoreHits, m.DC.Stats.StoreMisses,
		m.DC.Stats.MergeMisses, m.DC.Stats.Copybacks)
	if m.PF != nil {
		ps := m.PF.Stats
		fmt.Fprintf(out, "prefetch    %d triggers, %d issued, %d useful, %d late, %d dropped, %d evicted\n",
			ps.Triggers, ps.Issued, ps.Useful, ps.Late, ps.Dropped, ps.Evicted)
	}
	fmt.Fprintf(out, "icache      %d chunks, %d misses\n", m.IC.Stats.Chunks, m.IC.Stats.Misses)
	fmt.Fprintf(out, "bus         %d reads / %d writes, %d B in / %d B out\n",
		m.BIU.Reads, m.BIU.Writes, m.BIU.BytesRead, m.BIU.BytesWritten)
	fmt.Fprintf(out, "time        %.3f ms at %d MHz\n", res.Seconds()*1e3, tgt.FreqMHz)

	if pr, err := power.Power(res.Activity(), power.NominalVoltage); err == nil {
		fmt.Fprintf(out, "power       %.3f mW/MHz at 1.2V -> %.1f mW at %d MHz\n",
			pr.Total(), pr.MilliWattsAt(float64(tgt.FreqMHz)), tgt.FreqMHz)
	}
	if prof != nil {
		fmt.Fprintln(out)
		prof.Report(out, *profileN)
	}
}

// writeFile streams write to the named file, or stdout for "-".
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
