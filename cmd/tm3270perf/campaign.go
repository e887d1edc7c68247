package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/cosim"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
	"tm3270/internal/progen"
	"tm3270/internal/refmodel"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
)

const (
	// One worker: over ten runs on a 2-vCPU host, pass_s spread by 19%
	// with two workers and by 7% with one.
	campaignWorkers = 1
	campaignGenOps  = 64
	// campaignPerTarget generated programs per target keep a pass near
	// three seconds, so a run fits many passes.
	campaignPerTarget = 1000
	lockstepEvery     = 16
	campaignSeedSpan  = 10_000_000 // program seeds of -seed n start at (n-1)*span+1
	probeArtifacts    = 64         // configuration-D artifacts kept for the translate-cost probe
)

// campaignBench runs a differential conformance matrix of generated
// programs on the campaign engine, each unit compiled and translated
// cold, results appended to a fresh store and then read back by a resume
// pass. The shipped workloads are left out: their few large units took
// half the pass and set its tail, and lint-all already compiles them.
type campaignBench struct {
	g       *gates
	targets map[string]config.Target
	units   []campaign.Unit
	spec    string
	root    string // temp directory holding each pass's store
	passes  int

	mu          sync.Mutex
	lat         []time.Duration // this pass's unit latencies
	busy        time.Duration   // summed unit time over traced passes
	tracedFresh time.Duration   // fresh-pass wall over traced passes
	resume      time.Duration   // resume-pass wall over every pass
	fresh       time.Duration   // fresh-pass wall over every pass
	stored      int64           // record bytes over every pass
	storedN     int64           // units behind stored

	// Traced accumulators over decomposed units.
	simTime, refTime   time.Duration
	simInstrs          int64
	refInstrs          int64
	translated         int64
	counters, passSnap telemetry.Snapshot
	arts               []*runner.Artifact
}

func setupCampaign(o *options, g *gates) (bench, error) {
	b := &campaignBench{g: g, targets: map[string]config.Target{},
		spec: fmt.Sprintf("tm3270perf cosim seed=%d ops=%d", o.seed, campaignGenOps)}
	targets := []config.Target{config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD()}
	for _, t := range targets {
		b.targets[t.Name] = t
	}
	perTarget := campaignPerTarget
	if o.tiny {
		perTarget = 16
	}
	b.units = campaignUnits(o.seed, perTarget, targets)
	root, err := os.MkdirTemp("", "tm3270perf-campaign-")
	if err != nil {
		return nil, err
	}
	b.root = root
	return b, nil
}

// campaignUnits enumerates the unit matrix: perTarget generated programs
// per target whose seeds start at the -seed offset, every
// lockstepEvery'th one sampled into lockstep mode.
func campaignUnits(seed int64, perTarget int, targets []config.Target) []campaign.Unit {
	var units []campaign.Unit
	base := (seed - 1) * campaignSeedSpan
	n := 0
	for i := 1; i <= perTarget; i++ {
		for _, t := range targets {
			units = append(units, campaign.Unit{Kind: cosim.KindGenerated, Seed: base + int64(i),
				Ops: campaignGenOps, Target: t.Name, Lockstep: n%lockstepEvery == 0})
			n++
		}
	}
	return units
}

func (b *campaignBench) opsPerPass() int { return len(b.units) }

func (b *campaignBench) parts() int { return 1 }

func (b *campaignBench) pass(ctx context.Context, tr *tracer, _ int) []time.Duration {
	b.passes++
	dir := filepath.Join(b.root, fmt.Sprintf("pass%d", b.passes))
	defer os.RemoveAll(dir)
	b.mu.Lock()
	b.lat = make([]time.Duration, 0, len(b.units))
	b.passSnap = telemetry.Snapshot{}
	b.mu.Unlock()

	fn := func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
		return b.runUnit(ctx, tr, u)
	}
	start := time.Now()
	first, err := b.run(ctx, dir, fn)
	wall := time.Since(start)
	if !b.g.check(err == nil, "campaign fresh pass: %v", err) {
		b.g.op(false)
		return b.lat
	}
	b.checkAggregate(first)

	start = time.Now()
	again, err := b.run(ctx, dir, fn)
	resume := time.Since(start)
	ok := b.g.check(err == nil, "campaign resume pass: %v", err)
	if ok {
		ok = b.g.check(again.Stats.Executed == 0 && again.Stats.Cached == len(b.units),
			"campaign resume pass executed %d units, want 0", again.Stats.Executed)
		ok = b.g.check(sameAggregate(first.Aggregate, again.Aggregate),
			"campaign resume pass: aggregate differs from the fresh pass") && ok
	}
	b.g.op(ok)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.fresh += wall
	b.resume += resume
	if size, err := storeBytes(dir); b.g.check(err == nil, "campaign store: %v", err) {
		b.stored += size
		b.storedN += int64(len(b.units))
	}
	if tr != nil {
		b.tracedFresh += wall
		for _, d := range b.lat {
			b.busy += d
		}
		b.counters = b.passSnap
	}
	return b.lat
}

// run is one campaign.Run over the store in dir.
func (b *campaignBench) run(ctx context.Context, dir string, fn func(context.Context, campaign.Unit) (campaign.Result, error)) (*campaign.Outcome, error) {
	store, err := campaign.Open(dir, "1of1", b.spec)
	if err != nil {
		return nil, err
	}
	out, err := campaign.Run(ctx, campaign.Config{Workers: campaignWorkers, Store: store}, b.units, fn)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// checkAggregate requires every unit to agree: zero divergences, zero
// skips.
func (b *campaignBench) checkAggregate(out *campaign.Outcome) {
	a := out.Aggregate
	for _, f := range a.Bad {
		b.g.fail("campaign: %s diverged: %s %s", f.Unit, f.Result.Status, f.Result.Detail)
	}
	b.g.op(b.g.check(a.ByStatus[cosim.StatusOK] == a.Units,
		"campaign: statuses %v, want all %d ok", a.ByStatus, a.Units))
}

func sameAggregate(a, b *campaign.Aggregate) bool {
	x, err1 := a.MarshalJSONDeterministic()
	y, err2 := b.MarshalJSONDeterministic()
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func storeBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "records-*.jsonl"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// runUnit is one op: a unit of the matrix, timed and gated.
func (b *campaignBench) runUnit(ctx context.Context, tr *tracer, u campaign.Unit) (campaign.Result, error) {
	o := tr.begin()
	res, err := b.unit(ctx, o, u)
	d := o.end()
	b.g.op(err == nil && !res.Bad)
	b.mu.Lock()
	b.lat = append(b.lat, d)
	b.mu.Unlock()
	return res, err
}

func (b *campaignBench) unit(ctx context.Context, o *op, u campaign.Unit) (campaign.Result, error) {
	t, ok := b.targets[u.Target]
	if !ok {
		return campaign.Result{}, fmt.Errorf("unknown target %q", u.Target)
	}
	var res *cosim.Result
	var err error
	switch {
	case u.Kind == cosim.KindGenerated && (!o.traced() || u.Lockstep):
		o.do("cosim.run", func() {
			res, err = cosim.RunGenerated(u.Seed, t, u.Ops, cosim.Options{Lockstep: u.Lockstep})
		})
	case u.Kind == cosim.KindGenerated:
		res, err = b.generatedTraced(ctx, o, u, t)
	default:
		err = fmt.Errorf("unknown unit kind %q", u.Kind)
	}
	if err != nil {
		return campaign.Result{}, err
	}
	return unitResult(res), nil
}

// unitResult flattens a cosim result into its campaign record, as the
// cosim campaign does.
func unitResult(res *cosim.Result) campaign.Result {
	if res == nil {
		return campaign.Result{Status: cosim.StatusSkipped}
	}
	out := campaign.Result{Status: cosim.StatusOK, Instrs: res.Instrs}
	if res.Div != nil {
		out.Status = "divergent:" + res.Div.Kind
		out.Detail = res.Div.String()
		out.Bad = true
	}
	return out
}

// generatedTraced is cosim.RunGenerated's sequence with a span per
// layer: generate, compile, decode, load and run the pipeline model, run
// the reference model, then diff the architectural end state. A program
// on which either model traps is handed to cosim.RunGenerated, whose
// trap taxonomy decides agreement.
func (b *campaignBench) generatedTraced(ctx context.Context, o *op, u campaign.Unit, t config.Target) (*cosim.Result, error) {
	var p *prog.Program
	o.do("progen.generate", func() { p = progen.Generate(progen.Config{Seed: u.Seed, Target: &t, Ops: u.Ops}) })
	art, err := compileTraced(o, p, t)
	if err != nil {
		return nil, fmt.Errorf("gen seed %d on %s: %w", u.Seed, t.Name, err)
	}
	dec, err := decodeTraced(o, art)
	if err != nil {
		return nil, err
	}
	var sim *tmsim.Machine
	o.do("runner.load", func() { sim = runner.Load(art, nil).Machine })
	var simErr error
	simTime := o.do("tmsim.run", func() { simErr = sim.RunContext(ctx) })
	var ref *refmodel.Machine
	var refTrap *refmodel.Trap
	refTime := o.do("refmodel.run", func() {
		ref = refmodel.New(dec, t, refmodel.NewMem())
		refTrap = ref.Run()
	})
	if simErr != nil || refTrap != nil {
		var res *cosim.Result
		o.do("cosim.run", func() { res, err = cosim.RunGenerated(u.Seed, t, u.Ops, cosim.Options{}) })
		return res, err
	}

	res := &cosim.Result{Name: fmt.Sprintf("gen%d", u.Seed), Target: t.Name, Instrs: sim.Stats.Instrs}
	res.Div = diffState(sim, ref, &t)
	snap := sim.Registry().Snapshot()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.simTime += simTime
	b.refTime += refTime
	b.simInstrs += sim.Stats.Instrs
	b.refInstrs += ref.Issue()
	b.translated += snap.Get("sim.blockcache.translated")
	for k, v := range snap {
		b.passSnap[k] += v
	}
	if t.Name == config.ConfigD().Name && len(b.arts) < probeArtifacts {
		b.arts = append(b.arts, art)
	}
	return res, nil
}

// diffState compares the architectural end state of two models that both
// halted cleanly: retired instructions, registers, memory and, where the
// target has one, the prefetch MMIO bank.
func diffState(sim *tmsim.Machine, ref *refmodel.Machine, t *config.Target) *cosim.Divergence {
	if sim.Stats.Instrs != ref.Issue() {
		return &cosim.Divergence{Kind: "instrs",
			Detail: fmt.Sprintf("pipeline model retired %d instructions, reference model %d", sim.Stats.Instrs, ref.Issue())}
	}
	simRegs, refRegs := sim.RegSnapshot(), ref.Regs()
	for i := range simRegs {
		if simRegs[i] != refRegs[i] {
			return &cosim.Divergence{Kind: "reg",
				Detail: fmt.Sprintf("r%d = %#x (pipeline) vs %#x (reference)", i, simRegs[i], refRegs[i])}
		}
	}
	pages := map[uint32]bool{}
	for _, pa := range sim.Mem.PageAddrs() {
		pages[pa] = true
	}
	for _, pa := range ref.Mem.PageAddrs() {
		pages[pa] = true
	}
	for pa := range pages {
		for i := uint32(0); i < 1<<12; i++ {
			if x, y := sim.Mem.ByteAt(pa+i), ref.Mem.ByteAt(pa+i); x != y {
				return &cosim.Divergence{Kind: "mem",
					Detail: fmt.Sprintf("byte %#x = %#x (pipeline) vs %#x (reference)", pa+i, x, y)}
			}
		}
	}
	if t.HasRegionPrefetch {
		bank := ref.MMIORegs()
		for n := 0; n < prefetch.NumRegions; n++ {
			r := sim.PF.Regions[n]
			if got := [3]uint32{r.Start, r.End, r.Stride}; got != bank[n] {
				return &cosim.Divergence{Kind: "mmio",
					Detail: fmt.Sprintf("prefetch region %d = %v (pipeline) vs %v (reference)", n, got, bank[n])}
			}
		}
	}
	return nil
}

func (b *campaignBench) info(map[string]float64) {}

func (b *campaignBench) layerMetrics(m map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracedFresh > 0 {
		m["campaign.worker_busy_frac"] = float64(b.busy) / float64(b.tracedFresh*campaignWorkers)
	}
	if b.fresh > 0 {
		m["campaign.resume_frac"] = float64(b.resume) / float64(b.fresh)
	}
	if b.storedN > 0 {
		m["campaign.store_bytes_per_unit"] = float64(b.stored) / float64(b.storedN)
	}
	if b.simTime > 0 {
		m["tmsim.mips"] = float64(b.simInstrs) / b.simTime.Seconds() / 1e6
	}
	if b.refTime > 0 {
		m["refmodel.mips"] = float64(b.refInstrs) / b.refTime.Seconds() / 1e6
	}
	simLayerMetrics(m, b.counters)
	t := b.targets[config.ConfigD().Name]
	m["blockcache.translate_frac"] = translateFrac(b.g, b.arts, &t, b.translated, b.simTime)
}

func (b *campaignBench) finish(context.Context) {}

func (b *campaignBench) release() { os.RemoveAll(b.root) }
