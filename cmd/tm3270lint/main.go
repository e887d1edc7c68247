// Command tm3270lint statically verifies TM3270 binaries: it builds,
// schedules and encodes the named workloads (all of them by default),
// decodes the resulting images back, and runs the internal/binverify
// whole-program analyzer over the decoded machine code. Every finding
// is a structured diagnostic — PC, instruction index, issue slot,
// mnemonic, the analysis that fired and a message:
//
//	error: pc=0x1000038 instr 2 slot 3 asl [slot]: asl (unit shifter) may not issue in slot 3 (legal slots {1,2})
//
// The exit status is 1 if any workload produced an error-severity
// diagnostic (or any diagnostic at all under -strict), so the command
// gates CI and pre-run pipelines.
//
// Workloads verify concurrently (-parallel N, default GOMAXPROCS)
// through the runner's compile-artifact pipeline; reports print in
// workload order regardless of parallelism.
//
// With -json the command instead writes one JSON document to stdout:
// per workload its status, size, and every diagnostic as a structured
// record (check, severity, pc, instruction index, slot, opcode,
// message), so CI annotators and dashboards consume findings without
// scraping the text rendering. Exit codes are unchanged.
//
// With -exec each statically clean workload additionally executes on
// the machine model and its outputs are checked — the dynamic counterpart of the static gate.
//
// Usage:
//
//	tm3270lint [-config A|B|C|D|tm3260|tm3270] [-full] [-strict] [-q]
//	           [-json] [-parallel N] [-exec]
//	           [workload ...]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// report is one workload's rendered verification outcome.
type report struct {
	text   string
	failed bool
	fatal  error // setup failures (unknown workload, regalloc, encode)
	jw     jsonWorkload
}

// jsonDiag is one finding in the -json rendering.
type jsonDiag struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	PC       string `json:"pc"` // hex byte address, "0x..."
	Index    int    `json:"index"`
	Slot     int    `json:"slot,omitempty"` // 1-based; absent for instruction-level findings
	Op       string `json:"op,omitempty"`   // mnemonic, when the finding concerns one operation
	Msg      string `json:"msg"`
}

// jsonWorkload is one workload's entry in the -json rendering.
type jsonWorkload struct {
	Name         string     `json:"name"`
	Status       string     `json:"status"` // "ok", "findings", "skipped" or "fail"
	Reason       string     `json:"reason,omitempty"`
	Instructions int        `json:"instructions,omitempty"`
	Bytes        int        `json:"bytes,omitempty"`
	Errors       int        `json:"errors"`
	Warnings     int        `json:"warnings"`
	Diags        []jsonDiag `json:"diags,omitempty"`
}

func jsonDiags(rep *binverify.Report) []jsonDiag {
	var out []jsonDiag
	for i := range rep.Diags {
		d := &rep.Diags[i]
		out = append(out, jsonDiag{
			Check:    d.Check,
			Severity: d.Severity.String(),
			PC:       fmt.Sprintf("%#x", d.PC),
			Index:    d.Index,
			Slot:     d.Slot,
			Op:       d.Op,
			Msg:      d.Msg,
		})
	}
	return out
}

func main() {
	cfg := flag.String("config", "D", "target: A, B, C, D, tm3260 or tm3270")
	full := flag.Bool("full", false, "paper-scale workload sizes (default: small)")
	strict := flag.Bool("strict", false, "treat warnings as failures")
	quiet := flag.Bool("q", false, "print only workloads with findings")
	jsonOut := flag.Bool("json", false, "write one JSON document instead of text")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent verifications")
	exec := flag.Bool("exec", false, "also execute each verified workload and check its outputs (dynamic gate)")
	flag.Parse()

	tgt, err := config.ByName(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfg)
		os.Exit(2)
	}

	p := workloads.Small()
	if *full {
		p = workloads.Full()
	}
	names := flag.Args()
	if len(names) == 0 {
		names = workloads.Names()
	}

	reports := make([]report, len(names))
	pool := runner.NewPool(min(*parallel, len(names)), 0)
	for i, name := range names {
		// Submit fails only on a done context, and this one never is.
		_ = pool.Submit(context.Background(), func() {
			reports[i] = verifyOne(name, p, tgt, *strict, *quiet, *exec)
		})
	}
	pool.Close()

	failed := false
	doc := struct {
		Config    string         `json:"config"`
		Workloads []jsonWorkload `json:"workloads"`
	}{Config: tgt.Name}
	for _, r := range reports {
		if r.fatal != nil {
			fmt.Fprintln(os.Stderr, r.fatal)
			os.Exit(2)
		}
		if *jsonOut {
			doc.Workloads = append(doc.Workloads, r.jw)
		} else {
			fmt.Print(r.text)
		}
		if r.failed {
			failed = true
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// verifyOne compiles and statically verifies a single workload,
// rendering its report. With exec it also runs the workload and checks
// its outputs (the dynamic gate).
func verifyOne(name string, p workloads.Params, tgt config.Target, strict, quiet bool,
	exec bool) report {
	w, err := workloads.ByName(name, p)
	if err != nil {
		return report{fatal: err}
	}
	art, err := runner.Compile(w.Prog, tgt)
	if err != nil {
		// Workloads using TM3270-only operations cannot be compiled
		// for earlier targets; that is a property of the target, not a
		// verification finding. Allocation/encoding failures, by
		// contrast, are build-system faults.
		var serr *runner.ScheduleError
		if errors.As(err, &serr) {
			return report{
				text: fmt.Sprintf("%-16s skipped: %v\n", name, err),
				jw:   jsonWorkload{Name: name, Status: "skipped", Reason: err.Error()},
			}
		}
		return report{fatal: fmt.Errorf("%s: %w", name, err)}
	}
	rep, err := art.VerifyStatic(&tgt, art.VerifyOptions(w))
	if rep == nil {
		// A shipped binary that does not decode is itself a finding.
		return report{
			text:   fmt.Sprintf("%-16s FAIL: %v\n", name, err),
			failed: true,
			jw:     jsonWorkload{Name: name, Status: "fail", Reason: err.Error()},
		}
	}
	jw := jsonWorkload{
		Name: name, Status: "ok",
		Instructions: art.SchedInstrs(), Bytes: art.CodeBytes(),
		Errors: rep.Errors(), Warnings: rep.Warnings(),
		Diags: jsonDiags(rep),
	}
	var b strings.Builder
	bad := rep.Errors() > 0 || (strict && !rep.Clean())
	switch {
	case rep.Clean():
		if !quiet {
			fmt.Fprintf(&b, "%-16s ok: %d instructions, %d bytes\n",
				name, art.SchedInstrs(), art.CodeBytes())
		}
	default:
		jw.Status = "findings"
		fmt.Fprintf(&b, "%-16s %d error(s), %d warning(s):\n", name, rep.Errors(), rep.Warnings())
		rep.Write(&b)
	}
	if exec && !bad {
		res, runErr := runner.RunContext(context.Background(), w, tgt,
			runner.WithArtifact(art))
		if runErr != nil {
			fmt.Fprintf(&b, "%-16s exec FAIL: %v\n", name, runErr)
			jw.Status = "fail"
			jw.Reason = runErr.Error()
			return report{text: b.String(), failed: true, jw: jw}
		}
		if !quiet {
			fmt.Fprintf(&b, "%-16s exec ok: %d instrs, %d cycles\n",
				name, res.Stats.Instrs, res.Stats.Cycles)
		}
	}
	return report{text: b.String(), failed: bad, jw: jw}
}
