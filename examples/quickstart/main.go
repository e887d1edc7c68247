// Quickstart: write a kernel in the TM3270 operation DSL, compile it
// for the TM3270 and its TM3260 predecessor, run both on the machine
// model and compare the reports.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tm3270"
)

const (
	srcBase = 0x0001_0000
	dstBase = 0x0008_0000
	n       = 4096
)

func main() {
	// A 4x8-bit SIMD kernel: per pixel, average two video fields with
	// rounding (quadavg is the TriMedia idiom for field blending).
	b := tm3270.NewKernel("blend")
	a, c, out, cnt, cond := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	wa, wb, wo := b.Reg(), b.Reg(), b.Reg()
	b.Label("loop")
	b.Ld32D(wa, a, 0).InGroup(1)
	b.Ld32D(wb, c, 0).InGroup(2)
	b.QuadAvg(wo, wa, wb)
	b.St32D(out, 0, wo).InGroup(3)
	b.AddI(a, a, 4)
	b.AddI(c, c, 4)
	b.AddI(out, out, 4)
	b.AddI(cnt, cnt, -4)
	b.GtrI(cond, cnt, 0)
	b.JmpT(cond, "loop")
	p := b.MustProgram()

	w := tm3270.NewWorkload("blend", p,
		map[tm3270.VReg]uint32{a: srcBase, c: srcBase + n, out: dstBase, cnt: n},
		func(m *tm3270.Memory) error {
			for i := 0; i < 2*n; i++ {
				m.SetByte(srcBase+uint32(i), byte(i*7+13))
			}
			return nil
		},
		func(m *tm3270.Memory) error {
			for i := 0; i < n; i++ {
				x := uint32(m.ByteAt(srcBase + uint32(i)))
				y := uint32(m.ByteAt(srcBase + uint32(n+i)))
				want := byte((x + y + 1) / 2)
				if got := m.ByteAt(dstBase + uint32(i)); got != want {
					return fmt.Errorf("pixel %d: %d, want %d", i, got, want)
				}
			}
			return nil
		})

	// Compile once per target (the Artifact is the complete, reusable
	// build product) and run it as a per-run option. The run's context
	// is its wall-clock bound.
	for _, tgt := range []tm3270.Target{tm3270.TM3260(), tm3270.TM3270()} {
		art, err := tm3270.Compile(p, tgt)
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r, err := tm3270.RunContext(ctx, w, tgt, tm3270.WithArtifact(art))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %7d instrs  %7d cycles  CPI %.2f  OPI %.2f  %5d B code  %.3f ms\n",
			tgt.Name, r.Stats.Instrs, r.Stats.Cycles, r.Stats.CPI(), r.Stats.OPI(),
			r.CodeBytes(), r.Seconds()*1e3)
	}
	fmt.Println("outputs verified against the Go reference on both targets")
}
