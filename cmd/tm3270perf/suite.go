package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"time"

	"tm3270/internal/blockcache"
	"tm3270/internal/config"
	"tm3270/internal/mem"
	"tm3270/internal/runner"
	"tm3270/internal/telemetry"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// suiteGroups split the execute rate by workload family; every registry
// workload belongs to exactly one (see suiteGroup).
var suiteGroups = []string{"mpeg2", "cabac", "me", "eembc", "mem"}

func suiteGroup(name string) string {
	switch {
	case strings.HasPrefix(name, "mpeg2"):
		return "mpeg2"
	case strings.HasPrefix(name, "cabac"):
		return "cabac"
	case strings.HasPrefix(name, "me_"):
		return "me"
	case name == "memset" || name == "memcpy" || strings.HasPrefix(name, "blockwalk"):
		return "mem"
	}
	return "eembc"
}

// suiteItem is one precompiled registry workload.
type suiteItem struct {
	spec  *workloads.Spec
	art   *runner.Artifact
	group string
}

// suiteBench runs every registry workload on configuration D from
// precompiled artifacts: the execute loop and the memory-system models
// dominate, and nothing compiles inside a pass.
type suiteBench struct {
	g      *gates
	target config.Target
	items  []suiteItem
	// first holds each workload's counters from the first pass; later
	// passes must reproduce them exactly.
	first map[string]telemetry.Snapshot

	// Untraced accumulators (end-to-end info).
	execTime time.Duration
	instrs   int64
	cycles   int64 // one pass's simulated cycles

	// Traced accumulators (per-layer).
	groupTime   map[string]time.Duration
	groupInstrs map[string]int64
	translated  int64              // blocks translated over every traced pass
	counters    telemetry.Snapshot // one traced pass's summed counters
}

// suiteParams sizes the suite so that a pass takes a few seconds and a
// run fits many passes, whose median rides out the host's short slow
// spells.
// The frames stay larger than the 128 KB data cache: a 352x240 motion
// search reads two 82 KB frames, and a 352x240 MPEG-2 frame with its
// reference takes 247 KB.
func suiteParams() workloads.Params {
	p := workloads.Full()
	p.ImageW, p.ImageH, p.FieldH = 352, 240, 120
	p.Mpeg2W, p.Mpeg2H, p.Mpeg2Frames = 352, 240, 2
	p.CabacIBits, p.CabacPBits, p.CabacBBits = p.CabacIBits/4, p.CabacPBits/4, p.CabacBBits/4
	p.MP3Granules = 16
	return p
}

func setupSuite(o *options, g *gates) (bench, error) {
	p := suiteParams()
	if o.tiny {
		p = workloads.Small()
	}
	b := &suiteBench{g: g, target: config.ConfigD(), first: map[string]telemetry.Snapshot{},
		groupTime: map[string]time.Duration{}, groupInstrs: map[string]int64{}}
	// Compile in registry order and only then apply the seed's order:
	// compiling in the seed's order made set-up time depend on the seed,
	// by up to 2x under GOMAXPROCS=1.
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name, p)
		if err != nil {
			return nil, err
		}
		art, err := runner.CompileWorkload(spec, b.target)
		if err != nil {
			return nil, err
		}
		b.items = append(b.items, suiteItem{spec: spec, art: art, group: suiteGroup(name)})
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(b.items), func(i, j int) {
		b.items[i], b.items[j] = b.items[j], b.items[i]
	})
	return b, nil
}

func (b *suiteBench) opsPerPass() int { return len(b.items) }

func (b *suiteBench) parts() int { return 1 }

func (b *suiteBench) pass(ctx context.Context, tr *tracer, _ int) []time.Duration {
	lat := make([]time.Duration, 0, len(b.items))
	passCounters := telemetry.Snapshot{}
	for _, it := range b.items {
		o := tr.begin()
		m, exec, err := b.runOne(ctx, o, it)
		lat = append(lat, o.end())
		if !b.g.check(err == nil, "suite %s: %v", it.spec.Name, err) {
			b.g.op(false)
			continue
		}
		snap := m.Registry().Snapshot()
		stalls, idle := snap.Sum(tmsim.StallCounterNames...), snap.Get("sim.cycles")-snap.Get("sim.instrs")
		ok := b.g.check(stalls == idle,
			"suite %s: stall counters sum to %d, want cycles-instrs = %d", it.spec.Name, stalls, idle)
		ok = b.sameCounters(it.spec.Name, snap) && ok
		b.g.op(ok)
		for k, v := range snap {
			passCounters[k] += v
		}
		if tr == nil {
			b.execTime += exec
			b.instrs += m.Stats.Instrs
		} else {
			b.groupTime[it.group] += exec
			b.groupInstrs[it.group] += m.Stats.Instrs
			b.translated += snap.Get("sim.blockcache.translated")
		}
	}
	b.cycles = passCounters.Get("sim.cycles")
	if tr != nil {
		b.counters = passCounters
	}
	return lat
}

// runOne is one op: Init the memory image, Load the artifact, execute,
// Check the outputs — runner.RunContext's sequence minus the compile.
func (b *suiteBench) runOne(ctx context.Context, o *op, it suiteItem) (*tmsim.Machine, time.Duration, error) {
	image := mem.NewFunc()
	var err error
	if it.spec.Init != nil {
		o.do("workloads.init", func() { err = it.spec.Init(image) })
		if err != nil {
			return nil, 0, fmt.Errorf("init: %w", err)
		}
	}
	var ld *runner.Loaded
	o.do("runner.load", func() { ld = runner.Load(it.art, image) })
	m := ld.Machine
	for v, val := range it.spec.Args {
		m.SetReg(v, val)
	}
	exec := o.do("tmsim.run", func() { err = ld.RunContext(ctx) })
	if err != nil {
		return nil, 0, err
	}
	if it.spec.Check != nil {
		o.do("workloads.check", func() { err = it.spec.Check(image) })
		if err != nil {
			return nil, 0, fmt.Errorf("output check: %w", err)
		}
	}
	return m, exec, nil
}

// sameCounters holds every workload to the counters of its first run.
func (b *suiteBench) sameCounters(name string, snap telemetry.Snapshot) bool {
	want, ok := b.first[name]
	if !ok {
		b.first[name] = snap
		return true
	}
	return b.g.check(maps.Equal(want, snap), "suite %s: simulated counters differ from the first pass", name)
}

func (b *suiteBench) info(m map[string]float64) {
	if b.execTime > 0 {
		m["sim_mips"] = float64(b.instrs) / b.execTime.Seconds() / 1e6
	}
	m["sim_cycles"] = float64(b.cycles)
}

func (b *suiteBench) layerMetrics(m map[string]float64) {
	var instrs int64
	var t time.Duration
	for _, g := range suiteGroups {
		if b.groupTime[g] > 0 {
			m["tmsim.mips."+g] = float64(b.groupInstrs[g]) / b.groupTime[g].Seconds() / 1e6
		}
		instrs += b.groupInstrs[g]
		t += b.groupTime[g]
	}
	if t > 0 {
		m["tmsim.mips"] = float64(instrs) / t.Seconds() / 1e6
	}
	simLayerMetrics(m, b.counters)
	arts := make([]*runner.Artifact, len(b.items))
	for i, it := range b.items {
		arts[i] = it.art
	}
	m["blockcache.translate_frac"] = translateFrac(b.g, arts, &b.target, b.translated, t)
}

func (b *suiteBench) finish(context.Context) {}

func (b *suiteBench) release() {}

// simLayerMetrics copies one pass's summed simulated counters into the
// per-layer metrics, with the block-cache hit ratio derived from them.
func simLayerMetrics(m map[string]float64, snap telemetry.Snapshot) {
	for _, c := range simCounters {
		m[c] = float64(snap.Get(c))
	}
	tr, hits := snap.Get("sim.blockcache.translated"), snap.Get("sim.blockcache.hits")
	m["sim.blockcache.translated"] = float64(tr)
	m["sim.blockcache.hits"] = float64(hits)
	if tr+hits > 0 {
		m["blockcache.hit_ratio"] = float64(hits) / float64(tr+hits)
	}
}

// translateFrac estimates the share of execute time spent translating
// blocks: the translations counted during the traced passes, priced at
// the mean cost of blockcache.Translate timed at every source-block start
// of the given artifacts, over the execute time of those passes. The
// timing runs after the measured window.
func translateFrac(g *gates, arts []*runner.Artifact, t *config.Target, translated int64, exec time.Duration) float64 {
	if translated == 0 || exec <= 0 {
		return 0
	}
	var total time.Duration
	n := 0
	for _, a := range arts {
		for _, entry := range a.Code.BlockStart {
			if entry >= len(a.Code.Instrs) {
				continue
			}
			start := time.Now()
			_, err := blockcache.Translate(a.Code, a.RegMap, a.Enc, t, entry)
			total += time.Since(start)
			if !g.check(err == nil, "blockcache.Translate at %d: %v", entry, err) {
				return 0
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(translated) * float64(total) / float64(n) / float64(exec)
}
