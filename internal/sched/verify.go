package sched

import (
	"fmt"

	"tm3270/internal/config"
	"tm3270/internal/prog"
)

// Verify statically checks that scheduled code honors the exposed-
// pipeline contract the hardware relies on (the TM3270 has no register
// interlocks): every operation sits in an issue slot its functional
// unit is wired to (two-slot operations occupy an adjacent pair, loads
// respect the per-instruction load limit); within every block, no
// operation reads a register whose producing write has not yet
// committed (issue + latency), writes to the same register commit in
// program order, and every result commits by the end of its block (the
// drain rule that makes cross-block dataflow safe on both branch
// outcomes).
//
// Verify re-derives the constraints independently of the scheduler's
// own dependence graph, so it catches scheduler bugs that the
// differential execution tests would only hit probabilistically.
func Verify(c *Code) error {
	t := &c.Target
	for i := range c.Instrs {
		if err := verifySlots(c, i, t); err != nil {
			return err
		}
	}
	// commit[v] is the instruction index at which v's latest write in
	// the current block lands, or -1; touched lists the registers the
	// block wrote, so the next block starts from -1 again. Block entry
	// assumes everything committed (guaranteed by every predecessor's
	// drain).
	var commit []int
	var touched []prog.VReg
	for bi, start := range c.BlockStart {
		end := len(c.Instrs)
		if bi+1 < len(c.BlockStart) {
			end = c.BlockStart[bi+1]
		}
		for i := start; i < end; i++ {
			// All slots of one instruction read pre-instruction state, so
			// check every read before applying any of the writes (a
			// same-cycle write-after-read is legal).
			for s := 0; s < 5; s++ {
				so := c.Instrs[i].Slots[s]
				if so.Op == nil || so.Second {
					continue
				}
				info := so.Op.Info()
				reads := [5]prog.VReg{so.Op.Guard, so.Op.Src[0], so.Op.Src[1], so.Op.Src[2], so.Op.Src[3]}
				for _, v := range reads[:1+info.NSrc] {
					if int(v) < len(commit) && commit[v] > i {
						return fmt.Errorf("sched verify %s: instr %d reads %v before its write commits at %d (%s)",
							c.Name, i, v, commit[v], info.Name)
					}
				}
			}
			for s := 0; s < 5; s++ {
				so := c.Instrs[i].Slots[s]
				if so.Op == nil || so.Second {
					continue
				}
				info := so.Op.Info()
				nc := i + t.OpLatency(so.Op.Opcode)
				for _, d := range so.Op.Dest[:info.NDest] {
					for int(d) >= len(commit) {
						commit = append(commit, -1)
					}
					if ct := commit[d]; ct >= nc {
						return fmt.Errorf("sched verify %s: instr %d write of %v commits at %d, not after earlier commit %d (WAW)",
							c.Name, i, d, nc, ct)
					} else if ct < 0 {
						touched = append(touched, d)
					}
					commit[d] = nc
				}
			}
		}
		// Drain rule. Naming the lowest offending register keeps the
		// error independent of the order of the writes.
		bad := prog.VReg(-1)
		for _, v := range touched {
			if commit[v] > end && (bad < 0 || v < bad) {
				bad = v
			}
		}
		if bad >= 0 {
			return fmt.Errorf("sched verify %s: block %d: %v commits at %d after block end %d (drain rule)",
				c.Name, bi, bad, commit[bad], end)
		}
		for _, v := range touched {
			commit[v] = -1
		}
		touched = touched[:0]
	}
	return nil
}

// verifySlots checks unit/slot legality for one instruction: every
// operation sits in a slot its unit class is wired to on the target,
// two-slot operations hold an adjacent (first, Second) pair, and the
// load count stays within the target's per-instruction limit.
func verifySlots(c *Code, i int, t *config.Target) error {
	in := &c.Instrs[i]
	loads := 0
	for s := 0; s < 5; s++ {
		so := in.Slots[s]
		if so.Op == nil {
			continue
		}
		if so.Second {
			if s == 0 || in.Slots[s-1].Op != so.Op || in.Slots[s-1].Second {
				return fmt.Errorf("sched verify %s: instr %d slot %d: second half without matching first half",
					c.Name, i, s+1)
			}
			continue
		}
		info := so.Op.Info()
		mask := slotsFor(so.Op, t)
		if !mask.Has(s + 1) {
			return fmt.Errorf("sched verify %s: instr %d: %s in slot %d, unit allows %v",
				c.Name, i, info.Name, s+1, mask)
		}
		if info.TwoSlot && (s+1 >= 5 || in.Slots[s+1].Op != so.Op || !in.Slots[s+1].Second) {
			return fmt.Errorf("sched verify %s: instr %d slot %d: two-slot %s missing its second half",
				c.Name, i, s+1, info.Name)
		}
		if info.IsLoad {
			loads++
		}
	}
	if loads > t.MaxLoadsPerInstr {
		return fmt.Errorf("sched verify %s: instr %d issues %d loads, target allows %d",
			c.Name, i, loads, t.MaxLoadsPerInstr)
	}
	return nil
}
