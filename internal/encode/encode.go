package encode

import (
	"fmt"

	"tm3270/internal/isa"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
)

// SuperExtOpcode is the reserved opcode of the second half of a
// two-slot operation, which carries the third and fourth sources and
// the second destination (Section 2.2.1: the extra operands of
// SUPER_LD32R are "encoded as part of the second operation in the
// operation pair").
const SuperExtOpcode = 126

// Template compression codes (one 2-bit field per issue slot).
const (
	code26     = 0
	code34     = 1
	code42     = 2
	codeAbsent = 3
)

// sizeBits maps a compression code to its operation size.
var sizeBits = [3]int{26, 34, 42}

// 42-bit encodings start with a 3-bit marker selecting long-immediate
// forms; marker 0 is the regular guarded form.
const (
	mkRegular = 0
	mkIImm    = 1
	mkJmpI    = 2
	mkJmpT    = 3
	mkJmpF    = 4
	// Unguarded immediate forms trade the guard field for an 18-bit
	// immediate (needed when compressible operations are forced into
	// uncompressed jump-target instructions).
	mkImmU   = 5
	mkStoreU = 6
)

// Encoded is the binary image of a scheduled kernel.
type Encoded struct {
	Base  uint32 // byte address of the first instruction
	Bytes []byte
	// Addr[i] is the byte address of instruction i; Size[i] its length.
	Addr []uint32
	Size []int
}

// TotalBytes returns the code size.
func (e *Encoded) TotalBytes() int { return len(e.Bytes) }

// Encode lays out and encodes scheduled code at the given base address
// using the physical registers of the allocation map.
func Encode(c *sched.Code, m *regalloc.Map, base uint32) (*Encoded, error) {
	if isa.NumOpcodes > SuperExtOpcode {
		return nil, fmt.Errorf("encode: opcode space overflows the 7-bit field")
	}
	// Every label is a potential branch target and must be uncompressed;
	// so must the entry instruction.
	uncompressed := make([]bool, len(c.Instrs))
	if len(uncompressed) > 0 {
		uncompressed[0] = true
	}
	for _, idx := range c.Labels {
		if idx < len(c.Instrs) {
			uncompressed[idx] = true
		}
	}

	// Plan per-slot encodings (the compression code of every slot,
	// codeAbsent for an unused one) and sizes.
	plans := make([][5]uint8, len(c.Instrs))
	sizes := make([]int, len(c.Instrs))
	for i := range c.Instrs {
		bits := 10 // template field
		for s := 0; s < 5; s++ {
			so := c.Instrs[i].Slots[s]
			code := codeAbsent
			switch {
			case so.Op != nil:
				var err error
				code, err = chooseCode(so.Op, so.Second, m, uncompressed[i])
				if err != nil {
					return nil, fmt.Errorf("encode %s instr %d slot %d: %w", c.Name, i, s+1, err)
				}
				bits += sizeBits[code]
			case uncompressed[i]:
				// Padding NOP at full width.
				code = code42
				bits += 42
			}
			plans[i][s] = uint8(code)
		}
		sizes[i] = (bits + 7) / 8
	}

	// Addr carries one extra entry: the end address, so that labels on
	// an empty final block (jumps to the program end) resolve.
	enc := &Encoded{Base: base, Addr: make([]uint32, len(c.Instrs)+1), Size: sizes}
	addr := base
	for i := range c.Instrs {
		enc.Addr[i] = addr
		addr += uint32(sizes[i])
	}
	enc.Addr[len(c.Instrs)] = addr

	// Emit into a buffer sized to the laid-out image.
	w := bitWriter{buf: make([]byte, 0, addr-base)}
	for i := range c.Instrs {
		w.write(uint64(templateFor(plans, i+1)), 10)
		for s := 0; s < 5; s++ {
			code := int(plans[i][s])
			if code == codeAbsent {
				continue
			}
			so := c.Instrs[i].Slots[s]
			if err := emitSlot(&w, so.Op, so.Second, code, m, c, enc); err != nil {
				return nil, fmt.Errorf("encode %s instr %d slot %d: %w", c.Name, i, s+1, err)
			}
		}
		w.padToByte()
		if got := len(w.buf); got != int(enc.Addr[i]-base)+sizes[i] {
			return nil, fmt.Errorf("encode %s: instr %d layout drift: %d bytes, want %d",
				c.Name, i, got, int(enc.Addr[i]-base)+sizes[i])
		}
	}
	enc.Bytes = w.buf
	return enc, nil
}

// templateFor builds the 10-bit template describing instruction i (the
// template is carried by instruction i-1). Past the end, all slots read
// as absent.
func templateFor(plans [][5]uint8, i int) int {
	t := 0
	for s := 0; s < 5; s++ {
		code := codeAbsent
		if i < len(plans) {
			code = int(plans[i][s])
		}
		t = t<<2 | code
	}
	return t
}

// chooseCode picks the smallest encoding for an operation, honoring the
// uncompressed constraint of jump-target instructions.
func chooseCode(op *prog.Op, ext bool, m *regalloc.Map, uncompressed bool) (int, error) {
	info := op.Info()
	guard := m.Reg(op.Guard)
	imm := int64(int32(op.Imm))
	if uncompressed {
		// Still validate that the 42-bit form can carry the immediate.
		switch {
		case ext || info.IsJump || op.Opcode == isa.OpIIMM || !info.HasImm:
		case info.IsStore || info.NSrc <= 1:
			lim := 18
			if guard != isa.R1 {
				lim = 11
			}
			if !fitsSigned(imm, lim) {
				return 0, fmt.Errorf("%s: immediate %d does not fit the uncompressed form", info.Name, imm)
			}
		default:
			if op.Imm > 15 {
				return 0, fmt.Errorf("%s: immediate %d does not fit the uncompressed form", info.Name, imm)
			}
		}
		return code42, nil
	}

	if info.IsJump || op.Opcode == isa.OpIIMM && !fitsSigned(imm, 13) {
		return code42, nil
	}
	if ext {
		// The extension half has at most two sources and one destination
		// and is never guarded: 34 bits always fit.
		return code34, nil
	}
	// 26-bit compact form.
	if guard == isa.R1 && op.Opcode < 64 && info.NSrc <= 2 && !info.TwoSlot &&
		(!info.HasImm || op.Imm == 0) && regsBelow(op, m, 64) {
		return code26, nil
	}
	// 34-bit unguarded forms.
	if guard == isa.R1 {
		if info.HasImm && info.NSrc <= 1 && !info.IsStore {
			if fitsSigned(imm, 13) {
				return code34, nil
			}
		} else if !info.HasImm || op.Imm <= 63 {
			return code34, nil
		}
	}
	// 42-bit regular form. Unguarded immediate shapes use the wide
	// 18-bit forms (markers 5/6); guarded ones carry 11 bits.
	ok := false
	switch {
	case info.IsStore:
		if guard == isa.R1 {
			ok = fitsSigned(imm, 18)
		} else {
			ok = fitsSigned(imm, 11)
		}
	case info.HasImm && info.NSrc <= 1:
		if guard == isa.R1 {
			ok = fitsSigned(imm, 18)
		} else {
			ok = fitsSigned(imm, 11)
		}
	default:
		ok = !info.HasImm || op.Imm <= 15
	}
	if !ok {
		return 0, fmt.Errorf("%s: immediate %d does not fit any encoding", info.Name, imm)
	}
	return code42, nil
}

func regsBelow(op *prog.Op, m *regalloc.Map, limit int) bool {
	info := op.Info()
	for s := 0; s < min(info.NSrc, 2); s++ {
		if int(m.Reg(op.Src[s])) >= limit {
			return false
		}
	}
	for d := 0; d < min(info.NDest, 1); d++ {
		if int(m.Reg(op.Dest[d])) >= limit {
			return false
		}
	}
	return true
}

func fitsSigned(v int64, bits int) bool {
	lim := int64(1) << (bits - 1)
	return v >= -lim && v < lim
}

// emitSlot writes one slot's encoding in the planned compression code:
// op, or a full-width padding NOP when op is nil; ext selects the
// second half of a two-slot operation.
func emitSlot(w *bitWriter, op *prog.Op, ext bool, code int, m *regalloc.Map, c *sched.Code, enc *Encoded) error {
	if op == nil {
		// Full-width padding NOP (regular 42-bit form of opcode 0).
		w.write(mkRegular, 3)
		w.write(uint64(isa.OpNOP), 7)
		w.write(uint64(isa.R1), 7)
		w.write(0, 42-3-7-7)
		return nil
	}
	info := op.Info()
	guard := m.Reg(op.Guard)

	opcode := uint64(op.Opcode)
	s1, s2 := uint64(m.Reg(op.Src[0])), uint64(m.Reg(op.Src[1]))
	d := uint64(0)
	if info.NDest > 0 {
		d = uint64(m.Reg(op.Dest[0]))
	}
	if ext {
		// Second half: sources 3 and 4, destination 2.
		opcode = SuperExtOpcode
		s1, s2 = uint64(m.Reg(op.Src[2])), uint64(m.Reg(op.Src[3]))
		d = 0
		if info.NDest > 1 {
			d = uint64(m.Reg(op.Dest[1]))
		}
	}

	switch code {
	case code26:
		w.write(opcode, 6)
		w.write(s1, 6)
		w.write(s2, 6)
		w.write(d, 6)
		w.write(0, 2)
	case code34:
		w.write(opcode, 7)
		if !ext && info.HasImm && info.NSrc <= 1 && !info.IsStore {
			// Shape B: one source, destination, 13-bit signed immediate.
			w.write(s1, 7)
			w.write(d, 7)
			w.write(uint64(op.Imm)&0x1fff, 13)
		} else {
			// Shape A: two sources, destination, 6-bit immediate.
			w.write(s1, 7)
			w.write(s2, 7)
			w.write(d, 7)
			w.write(uint64(op.Imm)&0x3f, 6)
		}
	case code42:
		if ext {
			w.write(mkRegular, 3)
			w.write(opcode, 7)
			w.write(uint64(isa.R1), 7)
			w.write(s1, 7)
			w.write(s2, 7)
			w.write(d, 7)
			w.write(0, 4)
			return nil
		}
		switch {
		case op.Opcode == isa.OpIIMM:
			w.write(mkIImm, 3)
			w.write(d, 7)
			w.write(uint64(op.Imm), 32)
		case info.IsJump:
			mk := uint64(mkJmpI)
			switch op.Opcode {
			case isa.OpJMPT:
				mk = mkJmpT
			case isa.OpJMPF:
				mk = mkJmpF
			}
			ti, ok := c.Labels[op.Target]
			if !ok {
				return fmt.Errorf("jump to unknown label %q", op.Target)
			}
			w.write(mk, 3)
			w.write(uint64(guard), 7)
			w.write(uint64(enc.Addr[ti]), 32)
		case info.IsStore && guard == isa.R1:
			w.write(mkStoreU, 3)
			w.write(opcode, 7)
			w.write(s1, 7)
			w.write(s2, 7)
			w.write(uint64(op.Imm)&0x3ffff, 18)
		case info.IsStore:
			w.write(mkRegular, 3)
			w.write(opcode, 7)
			w.write(uint64(guard), 7)
			w.write(s1, 7)
			w.write(s2, 7)
			w.write(uint64(op.Imm)&0x7ff, 11)
		case info.HasImm && info.NSrc <= 1 && guard == isa.R1:
			w.write(mkImmU, 3)
			w.write(opcode, 7)
			w.write(s1, 7)
			w.write(d, 7)
			w.write(uint64(op.Imm)&0x3ffff, 18)
		case info.HasImm && info.NSrc <= 1:
			w.write(mkRegular, 3)
			w.write(opcode, 7)
			w.write(uint64(guard), 7)
			w.write(s1, 7)
			w.write(d, 7)
			w.write(uint64(op.Imm)&0x7ff, 11)
		default:
			w.write(mkRegular, 3)
			w.write(opcode, 7)
			w.write(uint64(guard), 7)
			w.write(s1, 7)
			w.write(s2, 7)
			w.write(d, 7)
			w.write(uint64(op.Imm)&0xf, 4)
		}
	}
	return nil
}
