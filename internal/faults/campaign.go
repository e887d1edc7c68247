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

// The fault campaign's fixed matrix: every injector of campaignSpecs
// on every workload of campaignWorkloads, campaignSeeds seeds each —
// 4 x 4 x 13 = 208 classified runs on the TM3270 at workloads.Small()
// sizes (see build).
const (
	campaignSeeds = 13
	// campaignWatchdog is the per-run instruction bound. It is the
	// run's only bound, so an outcome depends on nothing but
	// (workload, spec, seed); cancel the campaign through its context.
	campaignWatchdog = 200_000_000
)

// campaignSpecs are the injectors the campaign sweeps.
var campaignSpecs = []Spec{
	{Kind: BitFlip, Rate: 0.01, Delay: 200},
	{Kind: LoadFlip, Rate: 0.002, Delay: 200},
	{Kind: LineFlip, Rate: 0.05, Delay: 200},
	{Kind: DropPrefetch, Rate: 0.25, Delay: 200},
}

// campaignWorkloads is the workload set of both the fault campaign and
// the mutant matrix; blockwalk_pf is in it so prefetch-path injectors
// have traffic.
var campaignWorkloads = []string{"memset", "memcpy", "filter", "blockwalk_pf"}

// build returns the named workload at the campaigns' workloads.Small()
// sizes and its compilation for the TM3270.
func build(name string) (*workloads.Spec, *runner.Artifact, error) {
	w, err := workloads.ByName(name, workloads.Small())
	if err != nil {
		return nil, nil, err
	}
	art, err := runner.CompileWorkload(w, config.TM3270())
	return w, art, err
}

// CampaignResult aggregates a full campaign.
type CampaignResult struct {
	Reports []RunReport
	Counts  map[Outcome]int
}

// Runs returns the total number of classified runs.
func (r *CampaignResult) Runs() int { return len(r.Reports) }

// RunCampaign executes the seeded runs of every (workload, injector)
// pair of the campaign matrix and classifies each as detected (trap or
// divergence against the sequential reference), masked, or not
// injected. Every run is bounded by the instruction watchdog, and
// internal panics surface as traps — a campaign never hangs and never
// panics. A canceled ctx aborts the run in flight and the campaign
// returns ctx.Err(). When w is non-nil, one classification line per
// run is printed.
func RunCampaign(ctx context.Context, w io.Writer) (*CampaignResult, error) {
	res := &CampaignResult{Counts: map[Outcome]int{}}
	for _, name := range campaignWorkloads {
		wl, err := setupWorkload(name)
		if err != nil {
			return nil, err
		}
		for _, spec := range campaignSpecs {
			for seed := int64(1); seed <= campaignSeeds; seed++ {
				rep, err := wl.runOne(ctx, spec, seed)
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

// campaignWorkload is one workload's campaign setup, built once and
// shared by all of its runs: the immutable spec, its compilation and
// the fault-free final image of the sequential reference interpreter.
type campaignWorkload struct {
	name string
	w    *workloads.Spec
	art  *runner.Artifact
	ref  *mem.Func
}

func setupWorkload(name string) (*campaignWorkload, error) {
	w, art, err := build(name)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", name, err)
	}
	ref, err := w.Reference()
	if errors.Is(err, workloads.ErrCheck) {
		err = fmt.Errorf("fault-free reference fails its own check: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("faults: reference %s: %w", name, err)
	}
	return &campaignWorkload{name: name, w: w, art: art, ref: ref}, nil
}

// runOne executes one seeded fault-injected run and classifies it.
func (cw *campaignWorkload) runOne(ctx context.Context, spec Spec, seed int64) (*RunReport, error) {
	w, ref := cw.w, cw.ref
	image := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(image); err != nil {
			return nil, err
		}
	}
	l := runner.Load(cw.art, image, runner.WithWatchdog(campaignWatchdog))
	for v, val := range w.Args {
		l.Machine.SetReg(v, val)
	}

	inj := New(spec, seed)
	inj.Arm(l.Machine)
	runErr := l.RunContext(ctx)

	rep := &RunReport{Workload: cw.name, Spec: spec, Seed: seed, Injected: len(inj.Events)}
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
