package encode_test

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
)

// chainProgram is n dependent additions: one occupied slot per
// instruction.
func chainProgram(n int) *prog.Program {
	b := prog.NewBuilder("chain")
	x := b.Reg()
	b.Imm(x, 1)
	for i := 0; i < n; i++ {
		b.AddI(x, x, 1)
	}
	return b.MustProgram()
}

// wideProgram is n independent immediates: every slot of every
// instruction occupied.
func wideProgram(n int) *prog.Program {
	b := prog.NewBuilder("wide")
	for _, r := range b.Regs(n) {
		b.Imm(r, 1)
	}
	return b.MustProgram()
}

func scheduled(tb testing.TB, p *prog.Program) (*sched.Code, *regalloc.Map) {
	tb.Helper()
	code, err := sched.Schedule(p, config.ConfigD())
	if err != nil {
		tb.Fatal(err)
	}
	rm, err := regalloc.Allocate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return code, rm
}

func occupied(code *sched.Code) int {
	n := 0
	for i := range code.Instrs {
		for _, so := range code.Instrs[i].Slots {
			if so.Op != nil {
				n++
			}
		}
	}
	return n
}

// TestEncodeAllocs guards the encoder's allocation count: the slot
// plans are held by value and the image is written into a buffer
// sized up front, so the count depends on neither the number of
// occupied slots nor the image length.
func TestEncodeAllocs(t *testing.T) {
	var counts []float64
	for _, p := range []*prog.Program{chainProgram(4), chainProgram(40), wideProgram(100)} {
		code, rm := scheduled(t, p)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := encode.Encode(code, rm, 0x1000); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d instructions, %d occupied slots, %.0f allocations",
			p.Name, len(code.Instrs), occupied(code), allocs)
		counts = append(counts, allocs)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("Encode allocations vary with the occupied slots: %v", counts)
		}
	}
}

// TestDecodeTruncatedImage pins the decoder's error on an image cut off
// inside an instruction: the slot it was reading and the first bit
// beyond the stream.
func TestDecodeTruncatedImage(t *testing.T) {
	code, rm := scheduled(t, chainProgram(4))
	enc, err := encode.Encode(code, rm, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	cut := enc.Size[0] + 3 // the template and part of instruction 1's slot
	_, err = encode.Decode(enc.Bytes[:cut], enc.Base, len(code.Instrs))
	const want = "instr 1 slot 1: encode: bitstream exhausted at bit 248"
	if err == nil || err.Error() != want {
		t.Fatalf("Decode of a %d-byte prefix: %v, want %q", cut, err, want)
	}
}

// generated is a 64-op progen program compiled and encoded for config D,
// the shape of one generated-program conformance unit.
func generated(b *testing.B) (*sched.Code, *regalloc.Map, *encode.Encoded) {
	tgt := config.ConfigD()
	p := progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64})
	code, rm := scheduled(b, p)
	enc, err := encode.Encode(code, rm, 0x1000)
	if err != nil {
		b.Fatal(err)
	}
	return code, rm, enc
}

// BenchmarkEncode measures laying out and encoding one generated
// program.
func BenchmarkEncode(b *testing.B) {
	code, rm, _ := generated(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode.Encode(code, rm, 0x1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures decoding one generated program's image.
func BenchmarkDecode(b *testing.B) {
	code, _, enc := generated(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode.Decode(enc.Bytes, enc.Base, len(code.Instrs)); err != nil {
			b.Fatal(err)
		}
	}
}
