package encode

import (
	"fmt"

	"tm3270/internal/isa"
)

// DecOp is one decoded slot operation. Two-slot operations appear as
// their main half plus a SuperExtOpcode half in the following slot.
type DecOp struct {
	Opcode uint16 // isa.Opcode, or SuperExtOpcode for extension halves
	Guard  isa.Reg
	S1, S2 isa.Reg
	D      isa.Reg
	Imm    uint32 // sign-extended to 32 bits where the field is signed
	Target uint32 // jump target byte address
}

// IsExt reports whether this is the extension half of a two-slot op.
func (d *DecOp) IsExt() bool { return d.Opcode == SuperExtOpcode }

// DecInstr is one decoded VLIW instruction.
type DecInstr struct {
	Addr  uint32
	Size  int
	Slots [5]*DecOp
}

// Decode reads n instructions from the binary image. The first
// instruction must be uncompressed (every kernel entry is a jump
// target). Subsequent instruction shapes follow the template chain.
func Decode(img []byte, base uint32, n int) ([]DecInstr, error) {
	r := &bitReader{buf: img}
	out := make([]DecInstr, 0, n)
	// Every slot's DecOp comes from one slab. Instructions occupy
	// disjoint byte ranges, a decoded slot takes at least 26 bits and
	// the slot being read follows a 10-bit template, so the slot
	// attempted k-th (from 0) has 26k+10 <= len(img)*8: the slab never
	// runs out.
	slab := make([]DecOp, min(5*n, len(img)*8/26+1))
	k := 0
	// The entry instruction is uncompressed: all five slots at 42 bits.
	codes := [5]int{code42, code42, code42, code42, code42}
	addr := base
	for i := 0; i < n; i++ {
		r.seekByte(int(addr - base))
		tmpl, err := r.read(10)
		if err != nil {
			return nil, err
		}
		in := DecInstr{Addr: addr}
		bits := 10
		for s := 0; s < 5; s++ {
			if codes[s] == codeAbsent {
				continue
			}
			op := &slab[k]
			k++
			if err := decodeSlot(r, codes[s], op); err != nil {
				return nil, fmt.Errorf("instr %d slot %d: %w", i, s+1, err)
			}
			in.Slots[s] = op
			bits += sizeBits[codes[s]]
		}
		in.Size = (bits + 7) / 8
		out = append(out, in)
		addr += uint32(in.Size)
		// The template we just read describes the next instruction.
		for s := 4; s >= 0; s-- {
			codes[s] = int(tmpl & 3)
			tmpl >>= 2
		}
	}
	return out, nil
}

func signExtend(v uint64, bits int) uint32 {
	shift := 64 - uint(bits)
	return uint32(int64(v<<shift) >> shift)
}

// decodeSlot reads one slot's operation of the given size code into d.
func decodeSlot(r *bitReader, code int, d *DecOp) error {
	d.Guard = isa.R1
	switch code {
	case code26:
		op, err := r.read(6)
		if err != nil {
			return err
		}
		s1, _ := r.read(6)
		s2, _ := r.read(6)
		dd, _ := r.read(6)
		if _, err := r.read(2); err != nil {
			return err
		}
		if _, _, err := slotInfo(uint16(op)); err != nil {
			return err
		}
		d.Opcode = uint16(op)
		d.S1, d.S2, d.D = isa.Reg(s1), isa.Reg(s2), isa.Reg(dd)
		return nil

	case code34:
		op, err := r.read(7)
		if err != nil {
			return err
		}
		d.Opcode = uint16(op)
		info, isExt, err := slotInfo(uint16(op))
		if err != nil {
			return err
		}
		if !isExt && info.HasImm && info.NSrc <= 1 && !info.IsStore {
			s1, _ := r.read(7)
			dd, _ := r.read(7)
			imm, err := r.read(13)
			if err != nil {
				return err
			}
			d.S1, d.D, d.Imm = isa.Reg(s1), isa.Reg(dd), signExtend(imm, 13)
			return nil
		}
		s1, _ := r.read(7)
		s2, _ := r.read(7)
		dd, _ := r.read(7)
		imm, err := r.read(6)
		if err != nil {
			return err
		}
		d.S1, d.S2, d.D, d.Imm = isa.Reg(s1), isa.Reg(s2), isa.Reg(dd), uint32(imm)
		return nil

	case code42:
		mk, err := r.read(3)
		if err != nil {
			return err
		}
		switch mk {
		case mkIImm:
			dd, _ := r.read(7)
			imm, err := r.read(32)
			if err != nil {
				return err
			}
			d.Opcode = uint16(isa.OpIIMM)
			d.D, d.Imm = isa.Reg(dd), uint32(imm)
			return nil
		case mkJmpI, mkJmpT, mkJmpF:
			g, _ := r.read(7)
			tgt, err := r.read(32)
			if err != nil {
				return err
			}
			switch mk {
			case mkJmpI:
				d.Opcode = uint16(isa.OpJMPI)
			case mkJmpT:
				d.Opcode = uint16(isa.OpJMPT)
			default:
				d.Opcode = uint16(isa.OpJMPF)
			}
			d.Guard, d.Target = isa.Reg(g), uint32(tgt)
			return nil
		case mkImmU:
			op, err := r.read(7)
			if err != nil {
				return err
			}
			s1, _ := r.read(7)
			dd, _ := r.read(7)
			imm, err := r.read(18)
			if err != nil {
				return err
			}
			if _, _, err := slotInfo(uint16(op)); err != nil {
				return err
			}
			d.Opcode = uint16(op)
			d.S1, d.D, d.Imm = isa.Reg(s1), isa.Reg(dd), signExtend(imm, 18)
			return nil
		case mkStoreU:
			op, err := r.read(7)
			if err != nil {
				return err
			}
			s1, _ := r.read(7)
			s2, _ := r.read(7)
			imm, err := r.read(18)
			if err != nil {
				return err
			}
			if _, _, err := slotInfo(uint16(op)); err != nil {
				return err
			}
			d.Opcode = uint16(op)
			d.S1, d.S2, d.Imm = isa.Reg(s1), isa.Reg(s2), signExtend(imm, 18)
			return nil
		case mkRegular:
			op, err := r.read(7)
			if err != nil {
				return err
			}
			d.Opcode = uint16(op)
			info, isExt, err := slotInfo(uint16(op))
			if err != nil {
				return err
			}
			g, _ := r.read(7)
			d.Guard = isa.Reg(g)
			switch {
			case !isExt && info.IsStore:
				s1, _ := r.read(7)
				s2, _ := r.read(7)
				imm, err := r.read(11)
				if err != nil {
					return err
				}
				d.S1, d.S2, d.Imm = isa.Reg(s1), isa.Reg(s2), signExtend(imm, 11)
			case !isExt && info.HasImm && info.NSrc <= 1:
				s1, _ := r.read(7)
				dd, _ := r.read(7)
				imm, err := r.read(11)
				if err != nil {
					return err
				}
				d.S1, d.D, d.Imm = isa.Reg(s1), isa.Reg(dd), signExtend(imm, 11)
			default:
				s1, _ := r.read(7)
				s2, _ := r.read(7)
				dd, _ := r.read(7)
				imm, err := r.read(4)
				if err != nil {
					return err
				}
				d.S1, d.S2, d.D, d.Imm = isa.Reg(s1), isa.Reg(s2), isa.Reg(dd), uint32(imm)
			}
			return nil
		default:
			return fmt.Errorf("bad 42-bit marker %d", mk)
		}
	}
	return fmt.Errorf("bad size code %d", code)
}

// slotInfo returns the shape information for a decoded opcode, handling
// the reserved extension opcode. Decoded binaries are untrusted input:
// an undefined opcode is a decode error, never a panic.
func slotInfo(op uint16) (*isa.OpInfo, bool, error) {
	if op == SuperExtOpcode {
		return nil, true, nil
	}
	info, ok := isa.InfoOK(isa.Opcode(op))
	if !ok {
		return nil, false, fmt.Errorf("undefined opcode %d", op)
	}
	return info, false, nil
}
