// Package faults provides seeded, deterministic fault injection for the
// machine model: single-bit corruption of the memory image and of
// cache-line fills, dropped and delayed region prefetches, and
// bus-latency spikes. Injectors plug into the small fault interfaces of
// the machine's load port, mem.BIU and dcache.DCache, which only the
// running program drives, so a post-run output check injects nothing; a
// campaign of seeded runs (RunCampaign) then asserts that every
// injected fault is either detected (a trap or a divergence against the
// sequential reference), masked, or not injected at all — never a hang,
// never a panic. Its runs are bounded by the instruction watchdog
// alone, with no wall-clock limit, so each outcome depends only on
// (workload, spec, seed); the caller's context only cancels the
// campaign. The mutant matrix (RunMatrixCampaign) does the same for the
// encoded program image: seeded single-bit flips, classified by the
// decoder and the static verifier, and differentially executed under
// several machine seeds on the campaign engine, configured by the
// caller's campaign.Config.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tm3270/internal/tmsim"
)

// Kind names an injector family.
type Kind string

const (
	// BitFlip flips one bit of the initial memory image (a DDR cell
	// upset present before the kernel starts).
	BitFlip Kind = "bitflip"
	// LoadFlip flips one bit of a loaded value in flight (a transient
	// read-path upset that leaves memory itself intact).
	LoadFlip Kind = "loadflip"
	// LineFlip flips one bit of a demand-filled cache line's backing
	// bytes mid-run (a refill-path upset).
	LineFlip Kind = "lineflip"
	// DropPrefetch suppresses region prefetches (a refill engine that
	// loses requests).
	DropPrefetch Kind = "droppf"
	// DelayPrefetch delays region-prefetch completion (a congested
	// refill engine).
	DelayPrefetch Kind = "delaypf"
	// BusDelay adds latency spikes to bus reads (refresh storms,
	// arbitration stalls).
	BusDelay Kind = "busdelay"
)

// Kinds lists every injector family.
func Kinds() []Kind {
	return []Kind{BitFlip, LoadFlip, LineFlip, DropPrefetch, DelayPrefetch, BusDelay}
}

// Spec selects and parameterizes one injector.
type Spec struct {
	Kind Kind
	// Rate is the per-opportunity injection probability for the
	// mid-run kinds (0 < Rate <= 1; default 0.01).
	Rate float64
	// Delay is the injected latency in CPU cycles for the delaying
	// kinds (default 200).
	Delay int64
}

// ParseSpec parses an injector spec of the form "kind", "kind:rate" or
// "kind:rate:delay" — e.g. "bitflip", "droppf:0.5", "busdelay:0.1:400".
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	sp := Spec{Kind: Kind(parts[0]), Rate: 0.01, Delay: 200}
	switch sp.Kind {
	case BitFlip, LoadFlip, LineFlip, DropPrefetch, DelayPrefetch, BusDelay:
	default:
		return Spec{}, fmt.Errorf("faults: unknown injector %q (have %v)", parts[0], Kinds())
	}
	if len(parts) > 1 && parts[1] != "" {
		r, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || r <= 0 || r > 1 {
			return Spec{}, fmt.Errorf("faults: bad rate %q (want 0 < rate <= 1)", parts[1])
		}
		sp.Rate = r
	}
	if len(parts) > 2 && parts[2] != "" {
		d, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || d < 1 {
			return Spec{}, fmt.Errorf("faults: bad delay %q", parts[2])
		}
		sp.Delay = d
	}
	if len(parts) > 3 {
		return Spec{}, fmt.Errorf("faults: malformed spec %q", s)
	}
	return sp, nil
}

// String renders the spec in ParseSpec form.
func (s Spec) String() string {
	return fmt.Sprintf("%s:%g:%d", s.Kind, s.Rate, s.Delay)
}

// Event is one injected fault occurrence.
type Event struct {
	Addr uint32 // corrupted address (bit flips) or line address
	Bit  uint   // flipped bit within the byte (bit flips)
	Info string // human-readable description
}

// Injector is one armed fault source. It implements the fault hook
// interfaces of tmsim.Machine, mem.BIU and dcache.DCache; Arm plugs it into
// the right one for its kind. The same (spec, seed) pair always
// produces the same injection sequence against the same execution.
type Injector struct {
	Spec Spec
	rng  *rand.Rand
	mach *tmsim.Machine

	// Events logs every injected fault, in injection order.
	Events []Event
}

// New builds an injector from a spec and a seed.
func New(spec Spec, seed int64) *Injector {
	return &Injector{Spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// Arm plugs the injector into the machine's fault hooks. For BitFlip it
// corrupts the initial image immediately; the machine must already hold
// its initialized memory image.
func (in *Injector) Arm(m *tmsim.Machine) {
	in.mach = m
	switch in.Spec.Kind {
	case BitFlip:
		in.flipImageBit()
	case LoadFlip:
		m.LoadFault = in
	case LineFlip, DropPrefetch, DelayPrefetch:
		m.DC.Fault = in
	case BusDelay:
		m.BIU.Fault = in
	}
}

// flipImageBit corrupts one bit of one populated page, chosen
// deterministically from the seed.
func (in *Injector) flipImageBit() {
	pages := in.mach.Mem.PageAddrs()
	if len(pages) == 0 {
		return
	}
	addr := pages[in.rng.Intn(len(pages))] + uint32(in.rng.Intn(4096))
	bit := uint(in.rng.Intn(8))
	in.mach.Mem.FlipBit(addr, bit)
	in.Events = append(in.Events, Event{Addr: addr, Bit: bit,
		Info: fmt.Sprintf("image bit flip at %#x bit %d", addr, bit)})
}

// TapLoad implements tmsim.LoadFault (LoadFlip): flip one bit of the
// value in flight without touching the stored bytes.
func (in *Injector) TapLoad(addr uint32, n int, v uint64) uint64 {
	if in.Spec.Kind != LoadFlip || in.rng.Float64() >= in.Spec.Rate {
		return v
	}
	bit := uint(in.rng.Intn(8 * n))
	in.Events = append(in.Events, Event{Addr: addr, Bit: bit,
		Info: fmt.Sprintf("load of %d bytes at %#x flipped bit %d", n, addr, bit)})
	return v ^ 1<<bit
}

// ReadDelay implements mem.ReadFault (BusDelay).
func (in *Injector) ReadDelay(bytes int, prefetch bool) int64 {
	if in.Spec.Kind != BusDelay || in.rng.Float64() >= in.Spec.Rate {
		return 0
	}
	d := 1 + in.rng.Int63n(in.Spec.Delay)
	in.Events = append(in.Events, Event{
		Info: fmt.Sprintf("bus read delayed %d cycles (%d bytes, prefetch=%v)", d, bytes, prefetch)})
	return d
}

// Prefetch implements dcache.Fault (DropPrefetch / DelayPrefetch).
func (in *Injector) Prefetch(lineAddr uint32) (bool, int64) {
	switch in.Spec.Kind {
	case DropPrefetch:
		if in.rng.Float64() < in.Spec.Rate {
			in.Events = append(in.Events, Event{Addr: lineAddr,
				Info: fmt.Sprintf("prefetch of line %#x dropped", lineAddr)})
			return true, 0
		}
	case DelayPrefetch:
		if in.rng.Float64() < in.Spec.Rate {
			d := 1 + in.rng.Int63n(in.Spec.Delay)
			in.Events = append(in.Events, Event{Addr: lineAddr,
				Info: fmt.Sprintf("prefetch of line %#x delayed %d cycles", lineAddr, d)})
			return false, d
		}
	}
	return false, 0
}

// Fill implements dcache.Fault (LineFlip): corrupt one bit of the
// freshly filled line's backing bytes.
func (in *Injector) Fill(lineAddr uint32) {
	if in.Spec.Kind != LineFlip || in.rng.Float64() >= in.Spec.Rate {
		return
	}
	lineBytes := in.mach.Target.DCache.LineBytes
	addr := lineAddr + uint32(in.rng.Intn(lineBytes))
	bit := uint(in.rng.Intn(8))
	in.mach.Mem.FlipBit(addr, bit)
	in.Events = append(in.Events, Event{Addr: addr, Bit: bit,
		Info: fmt.Sprintf("cache-line fill bit flip at %#x bit %d", addr, bit)})
}

// CorruptedAddrs returns the set of addresses the injector flipped
// directly. Campaign classification excludes them when deciding whether
// a fault propagated beyond its injection site.
func (in *Injector) CorruptedAddrs() map[uint32]bool {
	if in.Spec.Kind != BitFlip && in.Spec.Kind != LineFlip {
		return nil
	}
	out := make(map[uint32]bool, len(in.Events))
	for _, e := range in.Events {
		out[e.Addr] = true
	}
	return out
}
