package faults

import (
	"context"
	"errors"
	"fmt"
	"io"

	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// Outcome classifies one fault-injected run.
type Outcome int

const (
	// Masked: the run completed, the output check passed and memory
	// matches the fault-free reference everywhere outside the injection
	// sites — the fault never propagated.
	Masked Outcome = iota
	// DetectedTrap: the machine raised a structured trap (or another
	// execution error) instead of running on with corrupted state.
	DetectedTrap
	// DetectedDivergence: the run completed but its outputs diverge —
	// the workload's own check failed, or memory differs from the
	// sequential reference beyond the injection sites.
	DetectedDivergence
	// NotInjected: the run completed like a masked one, but the
	// injector never fired (no populated page to flip, no prefetch to
	// drop), so the run says nothing about fault propagation.
	NotInjected
)

// String names the outcome for campaign reports.
func (o Outcome) String() string {
	switch o {
	case DetectedTrap:
		return "detected-trap"
	case DetectedDivergence:
		return "detected-divergence"
	case NotInjected:
		return "not-injected"
	}
	return "masked"
}

// RunReport is the classification of one seeded run.
type RunReport struct {
	Workload string
	Spec     Spec
	Seed     int64
	Outcome  Outcome
	Detail   string // trap summary or divergence description
	Injected int    // number of fault events the injector fired
}

// CampaignConfig parameterizes a fault campaign. Zero fields take the
// documented defaults.
type CampaignConfig struct {
	// Workloads are registry names (default: memset, memcpy, filter,
	// blockwalk_pf — the last so prefetch-path injectors have traffic).
	Workloads []string
	// Specs are the injectors to sweep (default: bitflip, loadflip,
	// lineflip, droppf).
	Specs []Spec
	// Seeds is the number of seeds per (workload, injector) pair
	// (default 13: 4 workloads x 4 injectors x 13 seeds = 208 runs).
	Seeds int
	// Params sizes the workloads (default workloads.Small()).
	Params *workloads.Params
	// Target is the processor configuration (default config.TM3270()).
	Target *config.Target
	// MaxInstrs is the per-run instruction watchdog (default 200M).
	// It is the run's only bound, so an outcome depends on nothing but
	// (workload, spec, seed); cancel the campaign through its context.
	MaxInstrs int64
}

func (c *CampaignConfig) fill() {
	if len(c.Workloads) == 0 {
		c.Workloads = defaultWorkloads()
	}
	if len(c.Specs) == 0 {
		for _, s := range []string{"bitflip", "loadflip:0.002", "lineflip:0.05", "droppf:0.25"} {
			sp, _ := ParseSpec(s)
			c.Specs = append(c.Specs, sp)
		}
	}
	if c.Seeds <= 0 {
		c.Seeds = 13
	}
	if c.Params == nil {
		p := workloads.Small()
		c.Params = &p
	}
	if c.Target == nil {
		t := config.TM3270()
		c.Target = &t
	}
	if c.MaxInstrs <= 0 {
		c.MaxInstrs = 200_000_000
	}
}

// defaultWorkloads is the campaign set of both the fault campaign and
// the mutant matrix; blockwalk_pf is in it so prefetch-path injectors
// have traffic.
func defaultWorkloads() []string {
	return []string{"memset", "memcpy", "filter", "blockwalk_pf"}
}

// CampaignResult aggregates a full campaign.
type CampaignResult struct {
	Reports []RunReport
	Counts  map[Outcome]int
}

// Runs returns the total number of classified runs.
func (r *CampaignResult) Runs() int { return len(r.Reports) }

// RunCampaign executes Seeds seeded runs of every (workload, injector)
// pair and classifies each as detected (trap or divergence against the
// sequential reference), masked, or not injected. Every run is bounded
// by the instruction watchdog, and internal panics surface as traps —
// a campaign never hangs and never panics. A canceled ctx aborts the
// run in flight and the campaign returns ctx.Err(). When w is non-nil,
// one classification line per run is printed.
func RunCampaign(ctx context.Context, cfg CampaignConfig, w io.Writer) (*CampaignResult, error) {
	cfg.fill()
	res := &CampaignResult{Counts: map[Outcome]int{}}
	for _, name := range cfg.Workloads {
		ref, err := referenceImage(name, *cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("faults: reference %s: %w", name, err)
		}
		for _, spec := range cfg.Specs {
			for s := 0; s < cfg.Seeds; s++ {
				seed := int64(s + 1)
				rep, err := runOne(ctx, name, cfg, spec, seed, ref)
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				if err != nil {
					return nil, fmt.Errorf("faults: %s/%s seed %d: %w", name, spec.Kind, seed, err)
				}
				res.Reports = append(res.Reports, *rep)
				res.Counts[rep.Outcome]++
				if w != nil {
					fmt.Fprintf(w, "%-14s %-22s seed %-3d %-19s events=%-3d %s\n",
						rep.Workload, rep.Spec, rep.Seed, rep.Outcome, rep.Injected, rep.Detail)
				}
			}
		}
	}
	return res, nil
}

// PrintSummary renders the aggregate counts.
func (r *CampaignResult) PrintSummary(w io.Writer) {
	fmt.Fprintf(w, "fault campaign: %d runs, %d detected-trap, %d detected-divergence, %d masked, %d not-injected\n",
		r.Runs(), r.Counts[DetectedTrap], r.Counts[DetectedDivergence], r.Counts[Masked], r.Counts[NotInjected])
}

// referenceImage runs the workload on the sequential reference
// interpreter and returns its final (fault-free) memory image.
func referenceImage(name string, p workloads.Params) (*mem.Func, error) {
	w, err := workloads.ByName(name, p)
	if err != nil {
		return nil, err
	}
	image, err := w.Reference()
	if errors.Is(err, workloads.ErrCheck) {
		return nil, fmt.Errorf("fault-free reference fails its own check: %w", err)
	}
	return image, err
}

// runOne executes one seeded fault-injected run and classifies it.
func runOne(ctx context.Context, name string, cfg CampaignConfig, spec Spec, seed int64, ref *mem.Func) (*RunReport, error) {
	// A fresh workload instance per run: Init/Check closures carry
	// per-image state.
	w, err := workloads.ByName(name, *cfg.Params)
	if err != nil {
		return nil, err
	}
	art, err := runner.CompileWorkload(w, *cfg.Target)
	if err != nil {
		return nil, err
	}
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, err
		}
	}
	l := runner.Load(art, image, runner.WithWatchdog(cfg.MaxInstrs))
	for v, val := range w.Args {
		l.Machine.SetReg(v, val)
	}

	inj := New(spec, seed)
	inj.Arm(l.Machine)
	runErr := l.RunContext(ctx)
	inj.Disarm(l.Machine)

	rep := &RunReport{Workload: name, Spec: spec, Seed: seed, Injected: len(inj.Events)}
	if runErr != nil {
		rep.Outcome = DetectedTrap
		rep.Detail = runErr.Error()
		return rep, nil
	}
	if w.Check != nil {
		if cerr := w.Check(image); cerr != nil {
			rep.Outcome = DetectedDivergence
			rep.Detail = "output check: " + cerr.Error()
			return rep, nil
		}
	}
	// The output check passed; any remaining difference against the
	// fault-free reference beyond the injection sites (and the MMIO
	// register block, which the reference interpreter stores to as
	// plain memory) still counts as a detected divergence.
	corrupted := inj.CorruptedAddrs()
	ignore := func(addr uint32) bool {
		if corrupted[addr] {
			return true
		}
		return addr >= prefetch.MMIOBase && addr < prefetch.MMIOBase+prefetch.MMIOSize
	}
	if addr, diff := mem.Diff(image, ref, ignore); diff {
		rep.Outcome = DetectedDivergence
		rep.Detail = fmt.Sprintf("memory diverges from reference at %#x", addr)
		return rep, nil
	}
	rep.Outcome = Masked
	if rep.Injected == 0 {
		rep.Outcome = NotInjected
	}
	return rep, nil
}
