// Package config defines processor target configurations: the TM3270,
// its predecessor the TM3260, and the intermediate configurations A–D
// of the paper's evaluation (Table 6 / Figure 7). The scheduler, the
// cache models and the cycle simulator are all parameterized on a
// Target, mirroring how re-compilation retargets TriMedia source code.
package config

import (
	"fmt"
	"strings"

	"tm3270/internal/isa"
)

// WriteMissPolicy selects the data-cache write-miss behaviour.
type WriteMissPolicy int

const (
	// FetchOnWriteMiss fetches the missing line from memory before
	// writing (TM3260).
	FetchOnWriteMiss WriteMissPolicy = iota
	// AllocateOnWriteMiss allocates the line without fetching it,
	// tracking per-byte validity (TM3270). Reduces write-miss penalty
	// and off-chip bandwidth.
	AllocateOnWriteMiss
)

func (p WriteMissPolicy) String() string {
	if p == AllocateOnWriteMiss {
		return "allocate-on-write-miss"
	}
	return "fetch-on-write-miss"
}

// CacheConfig describes one cache.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
	WriteMiss WriteMissPolicy // data cache only
}

// Sets returns the number of cache sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

func (c CacheConfig) String() string {
	return fmt.Sprintf("%dKB/%dB-lines/%d-way", c.SizeBytes/1024, c.LineBytes, c.Ways)
}

// Target is a complete processor configuration.
type Target struct {
	Name    string
	FreqMHz int

	// Pipeline.
	JumpDelaySlots int // 5 on TM3270, 3 on TM3260
	LoadLatency    int // 4 on TM3270, 3 on TM3260

	// Issue constraints.
	LoadSlots        isa.SlotMask // slot 5 only on TM3270; slots 4 and 5 on TM3260
	MaxLoadsPerInstr int

	// HasTM3270Ops enables the TM3270 ISA extensions: two-slot super
	// operations, the CABAC operations and collapsed loads. The
	// Figure 7 evaluation deliberately avoids them ("re-compilation
	// only"); Table 3 and the ablations use them.
	HasTM3270Ops bool

	// HasRegionPrefetch enables the four-region hardware prefetcher.
	HasRegionPrefetch bool

	ICache CacheConfig
	DCache CacheConfig

	// Off-chip memory: a 32-bit DDR SDRAM (two data beats per bus
	// clock) behind the BIU's asynchronous clock-domain crossing.
	MemBusMHz    int
	MemBusBytes  int // bus width in bytes
	MemLatencyNs int // first-access latency (row activate + CAS + BIU)
	// MemOverheadNs is the per-transaction DRAM occupancy beyond data
	// transfer (activate/precharge, turnaround): it bounds the effective
	// bandwidth well below the pin rate, as on real SDRAM.
	MemOverheadNs int

	// CWBEntries sizes the cache write buffer.
	CWBEntries int
}

// OpLatency returns the target's result latency of op: loads take the
// configured load latency (collapsed loads add their two filter stages
// on top of the memory pipeline), everything else its ISA latency.
func (t *Target) OpLatency(op isa.Opcode) int {
	info := isa.Info(op)
	switch {
	case op == isa.OpLDFRAC8:
		return t.LoadLatency + 2 // X5/X6 filter bank behind the load pipe
	case info.IsLoad:
		return t.LoadLatency
	default:
		return info.Latency
	}
}

// Supports reports whether the target implements op.
func (t *Target) Supports(op isa.Opcode) bool {
	info := isa.Info(op)
	if info.TwoSlot || op == isa.OpLDFRAC8 {
		return t.HasTM3270Ops
	}
	return true
}

// CyclesPerLine returns the CPU-cycle cost of transferring one cache
// line of the given size over the memory bus (occupancy, excluding the
// first-access latency).
func (t *Target) CyclesPerLine(lineBytes int) int {
	beats := lineBytes / t.MemBusBytes // DDR: 2 beats per bus clock
	busCycles := (beats + 1) / 2
	return busCyclesToCPU(busCycles, t.MemBusMHz, t.FreqMHz)
}

// MemLatencyCycles returns the first-access memory latency in CPU cycles.
func (t *Target) MemLatencyCycles() int {
	return (t.MemLatencyNs*t.FreqMHz + 999) / 1000
}

func busCyclesToCPU(busCycles, busMHz, cpuMHz int) int {
	return (busCycles*cpuMHz + busMHz - 1) / busMHz
}

// TM3270 returns the full TM3270 target (configuration D of Figure 7).
func TM3270() Target {
	return Target{
		Name:              "TM3270",
		FreqMHz:           350,
		JumpDelaySlots:    5,
		LoadLatency:       4,
		LoadSlots:         isa.Slots(5),
		MaxLoadsPerInstr:  1,
		HasTM3270Ops:      true,
		HasRegionPrefetch: true,
		ICache:            CacheConfig{SizeBytes: 64 << 10, LineBytes: 128, Ways: 8},
		DCache: CacheConfig{SizeBytes: 128 << 10, LineBytes: 128, Ways: 4,
			WriteMiss: AllocateOnWriteMiss},
		MemBusMHz:     200,
		MemBusBytes:   4,
		MemLatencyNs:  60,
		MemOverheadNs: 45,
		CWBEntries:    8,
	}
}

// TM3260 returns the predecessor target (configuration A of Figure 7).
func TM3260() Target {
	return Target{
		Name:             "TM3260",
		FreqMHz:          240,
		JumpDelaySlots:   3,
		LoadLatency:      3,
		LoadSlots:        isa.Slots(4, 5),
		MaxLoadsPerInstr: 2,
		ICache:           CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8},
		DCache: CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 8,
			WriteMiss: FetchOnWriteMiss},
		MemBusMHz:     200,
		MemBusBytes:   4,
		MemLatencyNs:  60,
		MemOverheadNs: 45,
		CWBEntries:    4,
	}
}

// ConfigA is the TM3260 (Figure 7).
func ConfigA() Target { return TM3260() }

// ConfigB is the TM3270 design with TM3260 cache capacities at the
// TM3260 frequency of 240 MHz (Figure 7).
func ConfigB() Target {
	t := TM3270()
	t.Name = "B (TM3270 core, 16KB D$, 240MHz)"
	t.FreqMHz = 240
	t.DCache.SizeBytes = 16 << 10
	return t
}

// ConfigC is configuration B at the TM3270 frequency of 350 MHz.
func ConfigC() Target {
	t := ConfigB()
	t.Name = "C (TM3270 core, 16KB D$, 350MHz)"
	t.FreqMHz = 350
	return t
}

// ConfigD is the TM3270.
func ConfigD() Target {
	t := TM3270()
	t.Name = "D (TM3270)"
	return t
}

// ByName maps a target name onto the paper's processor configurations,
// ignoring case: A-D are the Figure 7 evaluation points, and TM3260
// and TM3270 name configurations A and D.
func ByName(name string) (Target, error) {
	switch strings.ToUpper(name) {
	case "A", "TM3260":
		return ConfigA(), nil
	case "B":
		return ConfigB(), nil
	case "C":
		return ConfigC(), nil
	case "D", "TM3270":
		return ConfigD(), nil
	}
	return Target{}, fmt.Errorf("unknown target %q (want A-D, TM3260 or TM3270)", name)
}

// Validate sanity-checks the configuration.
func (t *Target) Validate() error {
	for _, c := range []struct {
		name string
		cc   CacheConfig
	}{{"icache", t.ICache}, {"dcache", t.DCache}} {
		if c.cc.LineBytes <= 0 || c.cc.Ways <= 0 || c.cc.SizeBytes <= 0 {
			return fmt.Errorf("%s: non-positive geometry %v", c.name, c.cc)
		}
		if c.cc.SizeBytes%(c.cc.LineBytes*c.cc.Ways) != 0 {
			return fmt.Errorf("%s: size %d not divisible into %d-way sets of %dB lines",
				c.name, c.cc.SizeBytes, c.cc.Ways, c.cc.LineBytes)
		}
		if s := c.cc.Sets(); s&(s-1) != 0 {
			return fmt.Errorf("%s: %d sets is not a power of two", c.name, s)
		}
		if c.cc.LineBytes&(c.cc.LineBytes-1) != 0 {
			return fmt.Errorf("%s: line size %d not a power of two", c.name, c.cc.LineBytes)
		}
	}
	if t.JumpDelaySlots < 0 || t.LoadLatency < 1 || t.FreqMHz <= 0 {
		return fmt.Errorf("%s: bad pipeline parameters", t.Name)
	}
	if t.LoadSlots.Count() == 0 {
		return fmt.Errorf("%s: no load slots", t.Name)
	}
	return nil
}
