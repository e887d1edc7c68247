package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"time"

	"tm3270/internal/config"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// lintSkips is the number of registry workloads the TM3260
// (configuration A) cannot schedule — the same six the cosim campaign
// reports as skipped.
const lintSkips = 6

type lintPair struct {
	spec   *workloads.Spec
	target config.Target
}

// lintBench compiles every registry workload for configurations A and D
// and statically verifies and bounds the binary, with no artifact cache
// and no execution: the compile layers and binverify do all the work.
//
// A whole pass takes about ten seconds, four fifths of it in the seven
// schedulable MPEG-2 decoder pairs. So that a run fits several samples,
// the pass is split into two halves of near-equal work, run alternately.
type lintBench struct {
	g         *gates
	halves    [2][]lintPair
	wantSkips int
	// skips holds each half's count of unschedulable pairs from its first
	// pass (-1 before it); later passes must repeat it.
	skips [2]int
}

// lintTiny is the test-scale subset; two of its workloads are among
// the six the TM3260 cannot schedule.
var lintTiny = []string{"memcpy", "filter", "cabac_opt_i", "me_frac8", "blockwalk_pf", "mp3_synth"}

const lintTinySkips = 2

func setupLint(o *options, g *gates) (bench, error) {
	p, names, skips := workloads.Full(), workloads.Names(), lintSkips
	if o.tiny {
		p, names, skips = workloads.Small(), lintTiny, lintTinySkips
	}
	var pairs []lintPair
	for _, name := range names {
		spec, err := workloads.ByName(name, p)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, lintPair{spec, config.ConfigA()}, lintPair{spec, config.ConfigD()})
	}
	b := &lintBench{g: g, halves: splitPairs(pairs), wantSkips: skips, skips: [2]int{-1, -1}}
	rng := rand.New(rand.NewSource(o.seed))
	for _, half := range b.halves {
		rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
	}
	return b, nil
}

// mayNotSchedule reports whether a pair runs a workload marked as using
// TM3270 operations on configuration A, which lacks them. Only such
// pairs may fail to schedule.
func mayNotSchedule(pr lintPair) bool {
	return pr.spec.TM3270Only && !pr.target.HasTM3270Ops
}

// splitPairs deals the pairs into two halves of near-equal work: largest
// program first, each to the half with fewer operations so far. A pair
// that may not schedule weighs nothing. Static verification time grows
// with program size, so the halves of the full matrix differ by about
// 5%.
func splitPairs(pairs []lintPair) [2][]lintPair {
	weight := func(pr lintPair) int {
		if mayNotSchedule(pr) {
			return 0
		}
		n := 0
		for _, blk := range pr.spec.Prog.Blocks {
			n += len(blk.Ops)
		}
		return n
	}
	sorted := append([]lintPair(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return weight(sorted[i]) > weight(sorted[j]) })
	var halves [2][]lintPair
	var load [2]int
	for _, pr := range sorted {
		h := 0
		if load[1] < load[0] {
			h = 1
		}
		halves[h] = append(halves[h], pr)
		load[h] += weight(pr)
	}
	return halves
}

func (b *lintBench) opsPerPass() int { return len(b.halves[0]) + len(b.halves[1]) }

func (b *lintBench) parts() int { return 2 }

func (b *lintBench) pass(_ context.Context, tr *tracer, part int) []time.Duration {
	half := b.halves[part]
	lat := make([]time.Duration, 0, len(half))
	skips := 0
	for i := range half {
		pr := &half[i]
		o := tr.begin()
		err := b.lintOne(o, pr)
		lat = append(lat, o.end())
		var se *runner.ScheduleError
		if errors.As(err, &se) {
			skips++
			b.g.op(b.g.check(mayNotSchedule(*pr),
				"lint %s on %s: unexpected schedule failure: %v", pr.spec.Name, pr.target.Name, err))
			continue
		}
		b.g.op(b.g.check(err == nil, "lint %s on %s: %v", pr.spec.Name, pr.target.Name, err))
	}
	if b.skips[part] < 0 {
		b.skips[part] = skips
	}
	b.g.op(b.g.check(skips == b.skips[part],
		"lint: %d pairs of half %d skipped as unschedulable, %d in its first pass", skips, part, b.skips[part]))
	return lat
}

// lintOne is one op: a fresh compile, then static verification (which
// must report no error diagnostics) and the static cycle bound.
func (b *lintBench) lintOne(o *op, pr *lintPair) error {
	var art *runner.Artifact
	var err error
	if o.traced() {
		art, err = compileTraced(o, pr.spec.Prog, pr.target)
	} else {
		art, err = runner.Compile(pr.spec.Prog, pr.target)
	}
	if err != nil {
		return err
	}
	opts := art.VerifyOptions(pr.spec)
	if o.traced() {
		_, _, err = staticCheckTraced(o, art, &pr.target, opts)
	} else {
		_, _, err = staticCheck(art, &pr.target, opts)
	}
	return err
}

func (b *lintBench) info(map[string]float64) {}

func (b *lintBench) layerMetrics(map[string]float64) {}

// finish pins the skips of the whole matrix.
func (b *lintBench) finish(context.Context) {
	b.g.op(b.g.check(b.skips[0]+b.skips[1] == b.wantSkips,
		"lint: %d pairs skipped as unschedulable, want %d", b.skips[0]+b.skips[1], b.wantSkips))
}

func (b *lintBench) release() {}
