// Package blockcache is the translation layer of the execution loop
// (tmsim): it predecodes straight-line VLIW packet regions ("blocks")
// into a flat struct-of-arrays micro-op form and caches the
// translations keyed by program counter.
//
// Executing the scheduled code directly costs three indirections per
// operation — a five-slot scan with nil/second-slot checks, an
// opcode-table lookup for the static description, and a virtual-to-
// physical register map — plus a label-map lookup per taken jump.
// A translated block pays all of that exactly once: the micro-op
// stream carries pre-resolved physical register indices, the target's
// result latency, the executable semantics as a direct function value,
// the effective-address mode and width of memory operations, and jump
// targets resolved to instruction indices. A block also keeps the
// per-instruction fetch address and size the cycle/stall model
// (instruction cache, data cache, bus) needs; the per-slot view the
// observability hooks want stays in the scheduled code, which the loop
// reads by instruction index only when a hook is armed.
//
// Blocks are immutable after translation, and the cache is a pure memo
// of Translate over one compile artifact: the engine executes the
// artifact, not bytes fetched from the memory image ("source
// compatible, not binary compatible"; the instruction cache models
// fetch timing only), so no store can change what a block means and
// nothing is ever invalidated. The cache is instance-scoped (one per
// machine run).
package blockcache

import (
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/icache"
	"tm3270/internal/isa"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
)

// Flags is the per-micro-op behaviour bit set.
type Flags uint16

const (
	// FlagGuardInv marks operations executing when the guard is FALSE.
	FlagGuardInv Flags = 1 << iota
	// FlagLoad / FlagStore / FlagAlloc classify memory operations.
	FlagLoad
	FlagStore
	FlagAlloc
	// FlagJump marks branch operations.
	FlagJump
	// FlagAddrRR selects the register+register effective address form.
	FlagAddrRR
	// FlagAddrBase selects the base-register-only form (LD_FRAC8).
	// Without either address flag a memory operation uses base+imm.
	FlagAddrBase
	// FlagMem is set for any memory operation (load, store or alloc).
	FlagMem
)

// MaxBlockInstrs caps translation so pathological straight-line code
// cannot produce unbounded blocks.
const MaxBlockInstrs = 256

// MaxLatency bounds the pre-resolved result latencies the engine's
// pending-write ring must cover; Translate rejects anything larger
// (no current target exceeds 6).
const MaxLatency = 63

// Block is one translated straight-line packet region: the
// instructions from Entry up to and including the first one that
// carries a jump operation (or the MaxBlockInstrs cap, or code end).
// All state is struct-of-arrays: per-instruction metadata indexed
// 0..N-1, and a flat micro-op stream indexed by the OpFirst ranges.
type Block struct {
	Entry int // first instruction index covered
	N     int // instructions covered

	// Per-instruction fetch metadata for the instruction-cache model.
	FetchAddr []uint32
	FetchSize []int32
	// ChunkLo/ChunkHi are the first and last 32-byte fetch chunks the
	// instruction's bytes occupy. When an instruction lies entirely in
	// the chunk already sitting in the instruction buffer, the fetch
	// model is a provable no-op (no stall, no counter) and the engine
	// skips the call.
	ChunkLo []uint32
	ChunkHi []uint32

	// OpFirst[i] is the first micro-op of instruction Entry+i; the
	// stream of instruction i is [OpFirst[i], OpFirst[i+1]). len N+1.
	OpFirst []int32

	// Ops is the flat micro-op stream: one packed record per primary
	// slot operation, in slot order within each instruction.
	Ops []MicroOp

	// TargetLabel keeps each op's jump label name for trap messages
	// (cold, parallel to Ops).
	TargetLabel []string
	// Info is the cold static description of each op, kept for trap
	// context and diagnostics only — the hot loop never touches it.
	Info []*isa.OpInfo
}

// MicroOp is one predecoded operation: executable semantics as a
// direct function value, pre-resolved physical register indices, the
// target's result latency, and the behaviour flags plus memory width
// and jump target the engine dispatches on — everything the hot loop
// needs in one record, no OpInfo lookup, no register map, no label map.
type MicroOp struct {
	Exec     isa.ExecFunc // executable semantics, direct call
	Imm      uint32       // immediate operand
	Target   int32        // jump target instruction index; -1 = unknown label
	Lat      int32        // result latency (issues until commit)
	Flags    Flags
	MemBytes uint16     // memory access width
	Guard    isa.Reg    // pre-resolved physical guard register
	NSrc     uint8      // sources used
	NDest    uint8      // destinations written
	Src      [4]isa.Reg // pre-resolved physical source registers
	Dest     [2]isa.Reg // pre-resolved physical destination registers
}

// Stats counts translation-cache activity for the sim.blockcache.*
// telemetry family.
type Stats struct {
	// Translated counts block translations (cache misses).
	Translated int64
	// Hits counts block executions served from the cache.
	Hits int64
}

// Cache is the per-machine translation cache: translated blocks keyed
// by entry instruction index (equivalently by PC — the encoding maps
// indices to byte addresses one-to-one). It is not safe for concurrent
// use; every machine run owns a private cache, like its memory image.
type Cache struct {
	code *sched.Code
	rm   *regalloc.Map
	enc  *encode.Encoded
	t    *config.Target

	blocks []*Block

	Stats Stats
}

// New builds an empty cache over one loaded code image.
func New(code *sched.Code, rm *regalloc.Map, enc *encode.Encoded, t *config.Target) *Cache {
	return &Cache{code: code, rm: rm, enc: enc, t: t,
		blocks: make([]*Block, len(code.Instrs))}
}

// Block returns the translation entered at instruction index idx,
// translating it on first use.
func (c *Cache) Block(idx int) (*Block, error) {
	if b := c.blocks[idx]; b != nil {
		c.Stats.Hits++
		return b, nil
	}
	b, err := Translate(c.code, c.rm, c.enc, c.t, idx)
	if err != nil {
		return nil, err
	}
	c.blocks[idx] = b
	c.Stats.Translated++
	return b, nil
}

// Translate predecodes one straight-line packet region starting at
// instruction index entry. It fails only on static inconsistencies a
// scheduled code image cannot legally contain (an operation latency
// beyond the engine's pending-write horizon); unknown jump labels are
// deferred to execution time, when a jump to one is taken.
func Translate(code *sched.Code, rm *regalloc.Map, enc *encode.Encoded, t *config.Target, entry int) (*Block, error) {
	if entry < 0 || entry >= len(code.Instrs) {
		return nil, fmt.Errorf("blockcache: entry %d outside code of %d instructions", entry, len(code.Instrs))
	}
	// Counting pass: the block's instruction and primary-op counts size
	// every array once, carved from one backing array per element type.
	n, nops := 0, 0
	for i := entry; i < len(code.Instrs) && n < MaxBlockInstrs; i++ {
		n++
		hasJump := false
		for _, so := range &code.Instrs[i].Slots {
			if so.Op != nil && !so.Second {
				nops++
				hasJump = hasJump || so.Op.Info().IsJump
			}
		}
		if hasJump {
			// The block ends at the jump-carrying instruction; its delay
			// window spans into the following blocks, tracked by the
			// engine's redirect state.
			break
		}
	}
	addrs := make([]uint32, 3*n)
	i32s := make([]int32, 2*n+1)
	b := &Block{
		Entry:       entry,
		N:           n,
		FetchAddr:   addrs[:n:n],
		ChunkLo:     addrs[n : 2*n : 2*n],
		ChunkHi:     addrs[2*n:],
		FetchSize:   i32s[:n:n],
		OpFirst:     i32s[n:],
		Ops:         make([]MicroOp, nops),
		TargetLabel: make([]string, nops),
		Info:        make([]*isa.OpInfo, nops),
	}
	o := 0
	for j := 0; j < n; j++ {
		i := entry + j
		b.FetchAddr[j] = enc.Addr[i]
		b.FetchSize[j] = int32(enc.Size[i])
		b.ChunkLo[j] = enc.Addr[i] &^ (icache.ChunkBytes - 1)
		b.ChunkHi[j] = (enc.Addr[i] + uint32(enc.Size[i]) - 1) &^ (icache.ChunkBytes - 1)
		b.OpFirst[j] = int32(o)
		in := &code.Instrs[i]
		for s := 0; s < 5; s++ {
			so := in.Slots[s]
			if so.Op == nil || so.Second {
				continue
			}
			op := so.Op
			info := op.Info()
			lat := int64(t.OpLatency(op.Opcode))
			if lat < 1 || lat > MaxLatency {
				return nil, fmt.Errorf("blockcache: %s latency %d outside the engine's [1, %d] commit horizon",
					info.Name, lat, MaxLatency)
			}

			var f Flags
			if info.GuardInverted {
				f |= FlagGuardInv
			}
			var src [4]isa.Reg
			for k := 0; k < info.NSrc; k++ {
				src[k] = rm.Reg(op.Src[k])
			}
			var dst [2]isa.Reg
			for k := 0; k < info.NDest; k++ {
				dst[k] = rm.Reg(op.Dest[k])
			}
			target := int32(-1)
			if info.IsJump {
				f |= FlagJump
				if ti, ok := code.Labels[op.Target]; ok {
					target = int32(ti)
				}
			}
			if info.IsLoad || info.IsStore {
				f |= FlagMem
				if info.IsLoad {
					f |= FlagLoad
				}
				if info.IsStore {
					f |= FlagStore
				}
				if op.Opcode == isa.OpALLOCD {
					f |= FlagAlloc
				}
				switch op.Opcode {
				case isa.OpLD32R, isa.OpLD16R, isa.OpULD16R, isa.OpLD8R, isa.OpULD8R,
					isa.OpSUPERLD32R:
					f |= FlagAddrRR
				case isa.OpLDFRAC8:
					f |= FlagAddrBase
				}
			}

			b.Ops[o] = MicroOp{
				Exec:     info.Exec,
				Imm:      op.Imm,
				Target:   target,
				Lat:      int32(lat),
				Flags:    f,
				MemBytes: uint16(info.MemBytes),
				Guard:    rm.Reg(op.Guard),
				NSrc:     uint8(info.NSrc),
				NDest:    uint8(info.NDest),
				Src:      src,
				Dest:     dst,
			}
			b.TargetLabel[o] = op.Target
			b.Info[o] = info
			o++
		}
	}
	b.OpFirst[n] = int32(o)
	return b, nil
}
