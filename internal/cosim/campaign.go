package cosim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/workloads"
)

// Unit kinds of the conformance campaign matrix.
const (
	KindWorkload  = "cosim-wl"  // one shipped workload on one target
	KindGenerated = "cosim-gen" // one generated program on one target
)

// Status values recorded for cosim units. Divergent units carry the
// divergence kind in the status ("divergent:reg", "divergent:trap",
// "divergent:lockstep-reg", ...), so a campaign aggregate breaks
// divergences down by kind for free.
const (
	StatusOK        = "ok"
	StatusSkipped   = "skipped"
	statusDivergent = "divergent:" // prefix
)

// CampaignConfig scales a conformance campaign.
type CampaignConfig struct {
	// Params sizes the shipped workloads (nil = workloads.Small()).
	Params *workloads.Params
	// Seeds is the number of generated programs per target (default 500).
	Seeds int
	// GenOps is the operation budget per generated program (default 64).
	GenOps int
	// LockstepEvery sample-gates intermediate-state diffing: every Nth
	// generated unit runs with the per-instruction register diff armed
	// (see Options.Lockstep). 0 selects the default of every 16th
	// unit; negative disables sampling.
	LockstepEvery int
}

func (c *CampaignConfig) fill() {
	if c.Params == nil {
		p := workloads.Small()
		c.Params = &p
	}
	if c.Seeds == 0 {
		c.Seeds = 500
	}
	if c.GenOps == 0 {
		c.GenOps = 64
	}
	if c.LockstepEvery == 0 {
		c.LockstepEvery = 16
	}
}

// Spec is the campaign fingerprint a store directory is bound to: the
// knobs that change unit results without appearing in the unit specs
// themselves. The seed count is deliberately excluded — growing a
// stored campaign to more programs reuses every completed unit. Every
// campaign runs with strict memory off; the literal "strict=false"
// keeps the fingerprints of stores written when that was a setting.
func (c *CampaignConfig) Spec() string {
	c.fill()
	ph := sha256.Sum256([]byte(fmt.Sprintf("%+v", *c.Params)))
	return fmt.Sprintf("cosim params=%s strict=false", hex.EncodeToString(ph[:6]))
}

// campaignTargets are the targets of every campaign: the paper's A–D
// configurations.
func campaignTargets() []config.Target {
	return []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
}

// UnitMatrix enumerates the campaign's deterministic work-unit matrix:
// every shipped workload on every target, then Seeds generated
// programs per target, with every LockstepEvery'th generated unit
// sample-gated into lockstep mode.
func (c *CampaignConfig) UnitMatrix() []campaign.Unit {
	c.fill()
	targets := campaignTargets()
	var units []campaign.Unit
	for _, name := range workloads.Names() {
		for i := range targets {
			units = append(units, campaign.Unit{
				Kind: KindWorkload, Name: name, Target: targets[i].Name,
			})
		}
	}
	n := 0
	for seed := int64(1); seed <= int64(c.Seeds); seed++ {
		for i := range targets {
			u := campaign.Unit{
				Kind: KindGenerated, Seed: seed, Ops: c.GenOps,
				Target: targets[i].Name,
			}
			if c.LockstepEvery > 0 && n%c.LockstepEvery == 0 {
				u.Lockstep = true
			}
			n++
			units = append(units, u)
		}
	}
	return units
}

// unitRunner executes campaign units; its target map is immutable
// after construction, so Run is safe for concurrent workers.
type unitRunner struct {
	params  workloads.Params
	targets map[string]*config.Target
}

func newUnitRunner(params workloads.Params) *unitRunner {
	targets := campaignTargets()
	r := &unitRunner{params: params, targets: make(map[string]*config.Target, len(targets))}
	for i := range targets {
		r.targets[targets[i].Name] = &targets[i]
	}
	return r
}

// Run executes one unit. The context is accepted for interface
// symmetry; individual runs are short and bounded by the models'
// watchdogs, so cancellation takes effect between units.
func (r *unitRunner) Run(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
	t, ok := r.targets[u.Target]
	if !ok {
		return campaign.Result{}, fmt.Errorf("unknown target %q", u.Target)
	}
	opts := Options{Lockstep: u.Lockstep}
	var res *Result
	var err error
	switch u.Kind {
	case KindWorkload:
		var w *workloads.Spec
		w, err = workloads.ByName(u.Name, r.params)
		if err == nil {
			res, err = RunWorkload(w, *t, opts)
		}
	case KindGenerated:
		res, err = RunGenerated(u.Seed, *t, u.Ops, opts)
	default:
		err = fmt.Errorf("unknown unit kind %q", u.Kind)
	}
	if err != nil {
		return campaign.Result{}, err
	}
	if res == nil {
		return campaign.Result{Status: StatusSkipped}, nil
	}
	return storedResult(res), nil
}

// storedResult flattens a cosim result into the campaign record form.
// The divergence kind rides in the status and the detail keeps the
// full rendered context, so fromStored reconstructs the exact report
// line.
func storedResult(res *Result) campaign.Result {
	out := campaign.Result{Status: StatusOK, Instrs: res.Instrs}
	if res.Div != nil {
		out.Status = statusDivergent + res.Div.Kind
		out.Detail = strings.TrimPrefix(res.Div.String(), res.Div.Kind+": ")
		out.Bad = true
	}
	return out
}

// fromStored rebuilds a reportable divergent Result from its campaign
// record.
func fromStored(u campaign.Unit, r campaign.Result) *Result {
	name := u.Name
	if u.Kind == KindGenerated {
		name = fmt.Sprintf("gen%d", u.Seed)
	}
	return &Result{Name: name, Target: u.Target, Instrs: r.Instrs,
		Div: &Divergence{Kind: strings.TrimPrefix(r.Status, statusDivergent), Detail: r.Detail}}
}

// Campaign aggregates a conformance sweep: every shipped workload and
// Seeds generated programs, co-simulated on every target.
type Campaign struct {
	Workloads int   // workload/target pairs co-simulated (schedule skips excluded)
	Skipped   int   // workload/target pairs the target cannot schedule
	Generated int   // generated program runs
	Lockstep  int   // units that ran with intermediate-state diffing armed
	Instrs    int64 // total instructions retired by the pipeline model
	Divergent []*Result

	// Aggregate is the engine's deterministic reduction (the artifact
	// sharded campaigns byte-compare); Stats the run-dependent totals.
	Aggregate *campaign.Aggregate
	Stats     campaign.Stats
}

// RunCampaign executes the sweep on the campaign engine configured by
// eng (workers, store, shard, progress); the driver sets eng.Reduce.
// Divergences are collected, not returned as errors; harness failures
// (compile errors, init failures) abort immediately. Cancelling ctx
// stops dispatching units and returns the context's error, leaving any
// store resumable.
func RunCampaign(ctx context.Context, cfg CampaignConfig, eng campaign.Config) (*Campaign, error) {
	cfg.fill()
	units := cfg.UnitMatrix()
	r := newUnitRunner(*cfg.Params)
	out := &Campaign{}
	eng.Reduce = func(i int, u campaign.Unit, res campaign.Result) {
		switch {
		case res.Status == StatusSkipped:
			out.Skipped++
		case u.Kind == KindWorkload:
			out.Workloads++
		default:
			out.Generated++
		}
		if u.Lockstep {
			out.Lockstep++
		}
		out.Instrs += res.Instrs
		if res.Bad {
			out.Divergent = append(out.Divergent, fromStored(u, res))
		}
	}
	o, err := campaign.Run(ctx, eng, units, r.Run)
	if err != nil {
		return nil, err
	}
	out.Aggregate = o.Aggregate
	out.Stats = o.Stats
	return out, nil
}

// PrintSummary writes the campaign outcome in the bench tool's format.
func (c *Campaign) PrintSummary(w io.Writer) {
	fmt.Fprintf(w, "cosim: %d workload runs (%d skipped), %d generated runs (%d in lockstep), %d instructions\n",
		c.Workloads, c.Skipped, c.Generated, c.Lockstep, c.Instrs)
	if len(c.Divergent) == 0 {
		fmt.Fprintf(w, "cosim: zero divergences\n")
		return
	}
	fmt.Fprintf(w, "cosim: %d DIVERGENT runs:\n", len(c.Divergent))
	for _, r := range c.Divergent {
		fmt.Fprintf(w, "  %s on %s: %s\n", r.Name, r.Target, r.Div)
	}
}
