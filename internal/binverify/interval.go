package binverify

import "tm3270/internal/isa"

// The value-range domain. A register's abstract value is an interval of
// int64 representatives: the concrete 32-bit pattern w satisfies
// w == uint32(x) for some x in [lo, hi]. Working over Z instead of a
// fixed signed/unsigned reading keeps addition, subtraction and
// multiplication exact (no wraparound case analysis); a signed or
// unsigned *interpretation* of the interval is only valid when it lies
// entirely inside that reading's window, which the comparison and
// address checks verify before drawing conclusions. Top (no
// information) is represented by absence from the range state.
type interval struct{ lo, hi int64 }

const (
	ivMaxMag   = int64(1) << 44 // magnitude guard: beyond this, give up
	ivMaxWidth = int64(1) << 32 // an interval this wide holds every pattern
)

func ivConst(u uint32) interval { return interval{int64(u), int64(u)} }

// ivSext is the constant interval of a sign-extended immediate.
func ivSext(imm uint32) interval { s := int64(int32(imm)); return interval{s, s} }

func (a interval) singleton() bool { return a.lo == a.hi }

// valid reports whether the interval is usable: non-empty, narrower
// than a full 2^32 wrap, and within the magnitude guard.
func (a interval) valid() bool {
	return a.lo <= a.hi && a.hi-a.lo < ivMaxWidth &&
		a.lo > -ivMaxMag && a.hi < ivMaxMag
}

// signedOK reports whether every representative equals its own signed
// 32-bit interpretation.
func (a interval) signedOK() bool { return a.lo >= -(1<<31) && a.hi < 1<<31 }

// unsignedOK reports whether every representative equals its own
// unsigned 32-bit interpretation.
func (a interval) unsignedOK() bool { return a.lo >= 0 && a.hi < 1<<32 }

func hull(a, b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

func (a interval) add(b interval) interval { return interval{a.lo + b.lo, a.hi + b.hi} }
func (a interval) sub(b interval) interval { return interval{a.lo - b.hi, a.hi - b.lo} }

func (a interval) mul(b interval) (interval, bool) {
	// Magnitude pre-check keeps the products inside int64.
	big := func(v int64) bool { return v > 1<<45 || v < -(1<<45) }
	if big(a.lo) || big(a.hi) || big(b.lo) || big(b.hi) {
		return interval{}, false
	}
	p := [4]int64{a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi}
	r := interval{p[0], p[0]}
	for _, v := range p[1:] {
		if v < r.lo {
			r.lo = v
		}
		if v > r.hi {
			r.hi = v
		}
	}
	return r, r.valid()
}

// containsZeroPattern reports whether some representative has the
// all-zero 32-bit pattern (needed by izero/inonzero refinement).
func (a interval) containsZeroPattern() bool {
	if !a.valid() {
		return true
	}
	// With |bounds| < 2^44 the multiples of 2^32 inside [lo, hi] are
	// findable by rounding lo up to the next multiple.
	m := a.lo
	if r := m % ivMaxWidth; r != 0 {
		if r > 0 {
			m += ivMaxWidth - r
		} else {
			m -= r
		}
	}
	return m <= a.hi
}

// rangeState holds every register's interval at a node's entry, dense
// over the register file. A register outside has is top; its iv entry
// is kept zero, so two states compare with ==. The hardwired r0/r1 are
// implicit (see get). A nil *rangeState is top everywhere: a node the
// fixpoint never reached, or one whose analysis was abandoned.
type rangeState struct {
	has regSet
	iv  [isa.NumRegs]interval
}

// get returns r's interval, resolving the hardwired registers.
func (s *rangeState) get(r isa.Reg) (interval, bool) {
	switch r {
	case isa.R0:
		return interval{0, 0}, true
	case isa.R1:
		return interval{1, 1}, true
	}
	return s.lookup(r)
}

// lookup returns the interval stored for r; ok=false means top.
func (s *rangeState) lookup(r isa.Reg) (interval, bool) {
	if s == nil || !s.has.has(r) {
		return interval{}, false
	}
	return s.iv[r], true
}

func (s *rangeState) set(r isa.Reg, iv interval) { s.has.add(r); s.iv[r] = iv }
func (s *rangeState) del(r isa.Reg)              { s.has.remove(r); s.iv[r] = interval{} }

// each calls fn for every non-top register in ascending order. fn may
// update or delete the register it is given.
func (s *rangeState) each(fn func(isa.Reg, interval)) {
	s.has.each(func(r isa.Reg) { fn(r, s.iv[r]) })
}

// cmpKind classifies the comparison operators the domain evaluates.
type cmpKind int

const (
	cmpNone cmpKind = iota
	cmpGT
	cmpGE
	cmpLT
	cmpLE
	cmpEQ
	cmpNE
)

// negate returns the complementary relation.
func (k cmpKind) negate() cmpKind {
	switch k {
	case cmpGT:
		return cmpLE
	case cmpGE:
		return cmpLT
	case cmpLT:
		return cmpGE
	case cmpLE:
		return cmpGT
	case cmpEQ:
		return cmpNE
	case cmpNE:
		return cmpEQ
	}
	return cmpNone
}

// flip returns the relation with the operands swapped.
func (k cmpKind) flip() cmpKind {
	switch k {
	case cmpGT:
		return cmpLT
	case cmpGE:
		return cmpLE
	case cmpLT:
		return cmpGT
	case cmpLE:
		return cmpGE
	}
	return k
}

func (k cmpKind) String() string {
	return [...]string{"?", ">", ">=", "<", "<=", "==", "!="}[k]
}

// cmpOpcode maps a comparison opcode to its relation and signedness.
func cmpOpcode(oc isa.Opcode) (k cmpKind, unsigned, immForm bool) {
	switch oc {
	case isa.OpIGTR:
		return cmpGT, false, false
	case isa.OpIGEQ:
		return cmpGE, false, false
	case isa.OpILES:
		return cmpLT, false, false
	case isa.OpILEQ:
		return cmpLE, false, false
	case isa.OpIEQL:
		return cmpEQ, false, false
	case isa.OpINEQ:
		return cmpNE, false, false
	case isa.OpUGTR:
		return cmpGT, true, false
	case isa.OpUGEQ:
		return cmpGE, true, false
	case isa.OpULES:
		return cmpLT, true, false
	case isa.OpULEQ:
		return cmpLE, true, false
	case isa.OpIGTRI:
		return cmpGT, false, true
	case isa.OpILESI:
		return cmpLT, false, true
	case isa.OpIEQLI:
		return cmpEQ, false, true
	case isa.OpINEQI:
		return cmpNE, false, true
	}
	return cmpNone, false, false
}

// evalCmp decides a rel b when the intervals allow it: 1 definitely
// true, 0 definitely false, unknown otherwise. Both operands must sit
// inside the relation's interpretation window.
func evalCmp(k cmpKind, unsigned bool, a, b interval) (bit int64, known bool) {
	winOK := func(iv interval) bool {
		if unsigned {
			return iv.unsignedOK()
		}
		return iv.signedOK()
	}
	if !winOK(a) || !winOK(b) {
		return 0, false
	}
	switch k {
	case cmpGT:
		if a.lo > b.hi {
			return 1, true
		}
		if a.hi <= b.lo {
			return 0, true
		}
	case cmpGE:
		if a.lo >= b.hi {
			return 1, true
		}
		if a.hi < b.lo {
			return 0, true
		}
	case cmpLT:
		if a.hi < b.lo {
			return 1, true
		}
		if a.lo >= b.hi {
			return 0, true
		}
	case cmpLE:
		if a.hi <= b.lo {
			return 1, true
		}
		if a.lo > b.hi {
			return 0, true
		}
	case cmpEQ:
		if a.singleton() && b.singleton() && a.lo == b.lo {
			return 1, true
		}
		if a.hi < b.lo || a.lo > b.hi {
			return 0, true
		}
	case cmpNE:
		if a.hi < b.lo || a.lo > b.hi {
			return 1, true
		}
		if a.singleton() && b.singleton() && a.lo == b.lo {
			return 0, true
		}
	}
	return 0, false
}

var bitIv = interval{0, 1}

// rangeResult computes the destination interval of a single-dest
// operation from its operand intervals. ok=false means top.
func rangeResult(op *vop, st *rangeState) (interval, bool) {
	src := func(i int) (interval, bool) {
		if i >= len(op.srcs) {
			return interval{}, false
		}
		return st.get(op.srcs[i])
	}
	a, aok := src(0)
	b, bok := src(1)

	// Comparisons are always bit-valued; refine to a constant when the
	// operand intervals decide the relation.
	if k, unsigned, immForm := cmpOpcode(op.oc); k != cmpNone {
		rhs, rok := b, bok
		if immForm {
			rhs, rok = ivSext(op.imm), true
		}
		if aok && rok {
			if bit, known := evalCmp(k, unsigned, a, rhs); known {
				return interval{bit, bit}, true
			}
		}
		return bitIv, true
	}

	switch op.oc {
	case isa.OpIIMM:
		return ivConst(op.imm), true
	case isa.OpIADD:
		if aok && bok {
			if r := a.add(b); r.valid() {
				return r, true
			}
		}
	case isa.OpISUB:
		if aok && bok {
			if r := a.sub(b); r.valid() {
				return r, true
			}
		}
	case isa.OpIADDI:
		if aok {
			if r := a.add(ivSext(op.imm)); r.valid() {
				return r, true
			}
		}
	case isa.OpIMUL:
		if aok && bok {
			if r, ok := a.mul(b); ok {
				return r, true
			}
		}
	case isa.OpIMIN:
		if aok && bok && a.signedOK() && b.signedOK() {
			return interval{min(a.lo, b.lo), min(a.hi, b.hi)}, true
		}
	case isa.OpIMAX:
		if aok && bok && a.signedOK() && b.signedOK() {
			return interval{max(a.lo, b.lo), max(a.hi, b.hi)}, true
		}
	case isa.OpIZERO, isa.OpINONZERO:
		want := op.oc == isa.OpIZERO
		if aok {
			zero := a.containsZeroPattern()
			onlyZero := a.singleton() && a.lo == 0
			switch {
			case onlyZero && want, !zero && !want:
				return interval{1, 1}, true
			case onlyZero && !want, !zero && want:
				return interval{0, 0}, true
			}
		}
		return bitIv, true
	case isa.OpSEX8:
		return byteRange(a, aok, -128, 127), true
	case isa.OpSEX16:
		return byteRange(a, aok, -32768, 32767), true
	case isa.OpZEX8:
		return byteRange(a, aok, 0, 255), true
	case isa.OpZEX16:
		return byteRange(a, aok, 0, 65535), true
	case isa.OpICLZ:
		return interval{0, 32}, true
	case isa.OpBITAND:
		if aok && bok && a.singleton() && b.singleton() {
			return ivConst(uint32(a.lo) & uint32(b.lo)), true
		}
		// and(x,y) <= x and <= y in the unsigned reading.
		hi := int64(-1)
		if aok && a.unsignedOK() {
			hi = a.hi
		}
		if bok && b.unsignedOK() && (hi < 0 || b.hi < hi) {
			hi = b.hi
		}
		if hi >= 0 {
			return interval{0, hi}, true
		}
	case isa.OpBITOR, isa.OpBITXOR:
		if aok && bok && a.singleton() && b.singleton() {
			u := uint32(a.lo)
			v := uint32(b.lo)
			if op.oc == isa.OpBITOR {
				return ivConst(u | v), true
			}
			return ivConst(u ^ v), true
		}
		if aok && bok && a.unsignedOK() && b.unsignedOK() {
			// Neither or nor xor can set a bit above both operands'
			// highest bit.
			return interval{0, int64(ceilPow2(uint64(max(a.hi, b.hi)))) - 1}, true
		}
	case isa.OpASLI:
		sh := uint(op.imm & 31)
		if aok {
			if a.singleton() {
				return ivConst(uint32(a.lo) << sh), true
			}
			if a.unsignedOK() {
				if r := (interval{a.lo << sh, a.hi << sh}); r.unsignedOK() {
					return r, true
				}
			}
		}
	case isa.OpLSRI:
		sh := uint(op.imm & 31)
		if aok && a.unsignedOK() {
			return interval{a.lo >> sh, a.hi >> sh}, true
		}
		return interval{0, int64((uint32(0xffffffff)) >> sh)}, true
	case isa.OpASRI:
		sh := uint(op.imm & 31)
		if aok && a.signedOK() {
			return interval{a.lo >> sh, a.hi >> sh}, true
		}
		return interval{-(1 << 31) >> sh, (1<<31 - 1) >> sh}, true
	case isa.OpASL, isa.OpLSR, isa.OpASR:
		if bok && b.singleton() && b.lo >= 0 && b.lo < 32 {
			sub := *op
			sub.imm = uint32(b.lo)
			switch op.oc {
			case isa.OpASL:
				sub.oc = isa.OpASLI
			case isa.OpLSR:
				sub.oc = isa.OpLSRI
			default:
				sub.oc = isa.OpASRI
			}
			return rangeResult(&sub, st)
		}
	case isa.OpLD8D, isa.OpLD8R:
		return interval{-128, 127}, true
	case isa.OpULD8D, isa.OpULD8R:
		return interval{0, 255}, true
	case isa.OpLD16D, isa.OpLD16R:
		return interval{-32768, 32767}, true
	case isa.OpULD16D, isa.OpULD16R:
		return interval{0, 65535}, true
	case isa.OpUME8UU:
		return interval{0, 4 * 255}, true
	case isa.OpIFIR8UI:
		return interval{-4 * 128 * 255, 4 * 127 * 255}, true
	}
	return interval{}, false
}

// byteRange refines a fixed extension range to the exact constant when
// the operand is a singleton.
func byteRange(a interval, aok bool, lo, hi int64) interval {
	if aok && a.singleton() {
		u := uint32(a.lo)
		if lo < 0 {
			bits := uint(8)
			if hi > 127 {
				bits = 16
			}
			shift := 32 - bits
			s := int64(int32(u<<shift) >> shift)
			return interval{s, s}
		}
		mask := uint32(hi)
		v := int64(u & mask)
		return interval{v, v}
	}
	return interval{lo, hi}
}

// ceilPow2 rounds v up to the next power of two (v >= 0).
func ceilPow2(v uint64) uint64 {
	p := uint64(1)
	for p <= v {
		p <<= 1
	}
	return p
}
