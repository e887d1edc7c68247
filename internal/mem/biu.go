package mem

import (
	"tm3270/internal/config"
	"tm3270/internal/telemetry"
)

// ReadFault injects extra latency into bus reads (DDR refresh storms,
// arbitration spikes). Fault injectors implement it; nil is fault-free.
type ReadFault interface {
	// ReadDelay returns extra CPU cycles added to the read's latency
	// and bus occupancy.
	ReadDelay(bytes int, prefetch bool) int64
}

// BIU models the bus interface unit and the 32-bit DDR SDRAM behind it.
// It tracks bus occupancy (transactions serialize FCFS) and converts
// between the SoC memory clock and the processor clock, standing in for
// the asynchronous clock-domain crossing of the real BIU. All times are
// in CPU cycles.
type BIU struct {
	latency  int64 // first-access latency (activate + CAS + crossing)
	overhead int64 // per-transaction occupancy beyond data transfer
	busyTill int64

	// Fault, when non-nil, adds injected latency to reads.
	Fault ReadFault

	// Events, when non-nil, receives one occupancy interval per bus
	// transaction on the bus lane.
	Events *telemetry.Trace

	// Statistics. Every read is either a demand read or a prefetch
	// read, so the read total is DemandReads + PrefetchRead.
	Writes                    int64
	BytesRead, BytesWritten   int64
	DemandReads, PrefetchRead int64
}

// NewBIU derives the timing parameters from the target.
func NewBIU(t *config.Target) *BIU {
	return &BIU{
		latency:  int64(t.MemLatencyCycles()),
		overhead: int64((t.MemOverheadNs*t.FreqMHz + 999) / 1000),
	}
}

func transferCycles(t *config.Target, bytes int) int64 {
	beats := (bytes + t.MemBusBytes - 1) / t.MemBusBytes
	busCycles := (beats + 1) / 2 // DDR: two beats per bus clock
	if busCycles < 1 {
		busCycles = 1
	}
	return int64((busCycles*t.FreqMHz + t.MemBusMHz - 1) / t.MemBusMHz)
}

// Read issues a line read of the given size at CPU cycle now and returns
// the cycle at which the data is fully available. Demand reads stall the
// processor until then; prefetch reads run in the background.
func (b *BIU) Read(t *config.Target, now int64, bytes int, prefetch bool) int64 {
	start := max64(now, b.busyTill)
	tr := transferCycles(t, bytes)
	if b.Fault != nil {
		tr += b.Fault.ReadDelay(bytes, prefetch)
	}
	b.busyTill = start + b.overhead + tr
	b.BytesRead += int64(bytes)
	name := "read:demand"
	if prefetch {
		b.PrefetchRead++
		name = "read:prefetch"
	} else {
		b.DemandReads++
	}
	if b.Events != nil {
		b.Events.Complete(telemetry.LaneBus, name, "bus",
			start, b.busyTill-start, map[string]any{"bytes": bytes})
	}
	return start + b.latency + tr
}

// Write issues a copyback of the given size. Copybacks do not stall the
// processor; they only occupy the bus.
func (b *BIU) Write(t *config.Target, now int64, bytes int) int64 {
	start := max64(now, b.busyTill)
	tr := transferCycles(t, bytes)
	b.busyTill = start + b.overhead + tr
	b.Writes++
	b.BytesWritten += int64(bytes)
	if b.Events != nil {
		b.Events.Complete(telemetry.LaneBus, "write:copyback", "bus",
			start, b.busyTill-start, map[string]any{"bytes": bytes})
	}
	return start + tr
}

// BusyUntil exposes the current occupancy horizon (tests, prefetch
// throttling).
func (b *BIU) BusyUntil() int64 { return b.busyTill }

// TotalBytes returns all off-chip traffic.
func (b *BIU) TotalBytes() int64 { return b.BytesRead + b.BytesWritten }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
