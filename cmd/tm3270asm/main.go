// Command tm3270asm compiles a workload kernel for a target and prints
// the scheduled VLIW listing — one line per instruction with its five
// issue slots, byte address and encoding size — plus code-size
// statistics, and optionally verifies the binary encoding by decoding
// it back.
//
// Usage:
//
//	tm3270asm [-config A|B|C|D|tm3260|tm3270] [-verify] [-stats] <workload>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/runner"
	"tm3270/internal/sched"
	"tm3270/internal/workloads"
)

func main() {
	cfg := flag.String("config", "D", "target: A, B, C, D, tm3260 or tm3270")
	verify := flag.Bool("verify", false, "decode the binary back and verify the round trip")
	statsOnly := flag.Bool("stats", false, "print only code-size statistics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tm3270asm [-config D] [-verify] [-stats] <workload>")
		os.Exit(2)
	}

	tgt, err := config.ByName(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfg)
		os.Exit(2)
	}

	w, err := workloads.ByName(flag.Arg(0), workloads.Small())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	art, err := runner.CompileWorkload(w, tgt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code, rm, enc := art.Code, art.RegMap, art.Enc

	labelAt := map[int]string{}
	for l, i := range code.Labels {
		labelAt[i] = l
	}

	if !*statsOnly {
		for i := range code.Instrs {
			if l, ok := labelAt[i]; ok {
				fmt.Printf("%s:\n", l)
			}
			fmt.Printf("%08x %2dB  %s\n", enc.Addr[i], enc.Size[i],
				formatInstr(&code.Instrs[i], rm))
		}
	}

	fmt.Printf("\n%s for %s: %d instructions, %d source ops (OPI %.2f), %d pad instrs, %d bytes (%.1f B/instr)\n",
		w.Name, tgt.Name, len(code.Instrs), code.SrcOps, code.OpsPerInstr(),
		code.PadInstrs, enc.TotalBytes(), float64(enc.TotalBytes())/float64(len(code.Instrs)))
	hist := map[int]int{}
	for _, s := range enc.Size {
		hist[s]++
	}
	for s := 2; s <= 28; s++ {
		if hist[s] > 0 {
			fmt.Printf("  %2d-byte instructions: %d\n", s, hist[s])
		}
	}

	if *verify {
		dec, err := encode.Decode(enc.Bytes, enc.Base, len(code.Instrs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "decode: %v\n", err)
			os.Exit(1)
		}
		for i := range dec {
			if dec[i].Addr != enc.Addr[i] || dec[i].Size != enc.Size[i] {
				fmt.Fprintf(os.Stderr, "round-trip mismatch at instruction %d\n", i)
				os.Exit(1)
			}
		}
		fmt.Printf("round-trip: %d instructions decode to matching addresses and sizes\n", len(dec))
	}
}

// formatInstr renders the five slots with physical registers.
func formatInstr(in *sched.Instr, rm *regalloc.Map) string {
	var parts []string
	for s := 0; s < 5; s++ {
		so := in.Slots[s]
		switch {
		case so.Op == nil:
			parts = append(parts, "-")
		case so.Second:
			parts = append(parts, "^^")
		default:
			parts = append(parts, formatOp(so.Op, rm))
		}
	}
	return strings.Join(parts, " | ")
}

func formatOp(op *prog.Op, rm *regalloc.Map) string {
	info := op.Info()
	s := ""
	if g := rm.Reg(op.Guard); g != 1 {
		s += fmt.Sprintf("if %v ", g)
	}
	s += info.Name
	for i := 0; i < info.NSrc; i++ {
		s += " " + rm.Reg(op.Src[i]).String()
	}
	if info.HasImm {
		if info.IsJump {
			s += " " + op.Target
		} else {
			s += fmt.Sprintf(" #%d", int32(op.Imm))
		}
	}
	if info.NDest > 0 {
		s += " ->"
		for i := 0; i < info.NDest; i++ {
			s += " " + rm.Reg(op.Dest[i]).String()
		}
	}
	return s
}
