package faults

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"

	"tm3270/internal/campaign"
	"tm3270/internal/config"
	"tm3270/internal/workloads"
)

// KindMutant is the campaign unit kind of the mutant matrix: one
// seeded single-bit image flip, classified statically and — if it
// survives the static gates — executed differentially under one
// machine seed.
const KindMutant = "mutant"

// Status values recorded for mutant units. The first four mirror
// StaticOutcome; detected/silent are the differential fates of
// statically-missed mutants.
const (
	StatusDetected = "detected"
	StatusSilent   = "silent"
)

// MatrixConfig scales a mutant × machine-seed matrix campaign over the
// fault campaign's workloads, built as the fault campaign builds them.
// Zero fields take the documented defaults.
type MatrixConfig struct {
	// Mutants is the number of seeded single-bit image flips per
	// workload (default 64).
	Mutants int
	// MSeeds is the number of machine seeds per mutant, including the
	// unperturbed baseline seed 0 (default 5: baseline + 4 perturbed).
	MSeeds int
}

func (c *MatrixConfig) fill() {
	if c.Mutants <= 0 {
		c.Mutants = 64
	}
	if c.MSeeds <= 0 {
		c.MSeeds = 5
	}
}

// Spec is the matrix campaign's store fingerprint. Workloads, mutant
// counts and machine seeds live in the unit specs, so a stored
// campaign grows to more mutants or seeds by pure cache extension;
// the workload params and the target shape unit results without
// appearing in them, so they bind the store.
func (c *MatrixConfig) Spec() string {
	ph := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", workloads.Small(), config.TM3270())))
	return fmt.Sprintf("mutmatrix params=%s", hex.EncodeToString(ph[:6]))
}

// UnitMatrix enumerates the deterministic matrix: workload × mutant
// seed × machine seed, machine seeds innermost so one mutant's fates
// under every seed are adjacent in the aggregate.
func (c *MatrixConfig) UnitMatrix() []campaign.Unit {
	c.fill()
	var units []campaign.Unit
	target := config.TM3270().Name
	for _, name := range campaignWorkloads {
		for mut := int64(1); mut <= int64(c.Mutants); mut++ {
			for ms := int64(0); ms < int64(c.MSeeds); ms++ {
				units = append(units, campaign.Unit{
					Kind: KindMutant, Name: name, Target: target,
					Mutant: mut, MSeed: ms,
				})
			}
		}
	}
	return units
}

// matrixRunner executes mutant units. Compiled targets and golden
// runs are cached per workload and per (workload, machine seed) under
// a mutex; the cached values are immutable afterwards, so concurrent
// unit runs share them safely.
type matrixRunner struct {
	mu      sync.Mutex
	targets map[string]*mutTarget
	goldens map[string]*golden
}

func newMatrixRunner() *matrixRunner {
	return &matrixRunner{
		targets: map[string]*mutTarget{},
		goldens: map[string]*golden{},
	}
}

func (r *matrixRunner) target(name string) (*mutTarget, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if mt, ok := r.targets[name]; ok {
		return mt, nil
	}
	mt, err := newMutTarget(name)
	if err != nil {
		return nil, err
	}
	r.targets[name] = mt
	return mt, nil
}

func (r *matrixRunner) golden(mt *mutTarget, name string, mseed int64) (*golden, error) {
	key := fmt.Sprintf("%s|%d", name, mseed)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.goldens[key]; ok {
		return g, nil
	}
	g, err := mt.goldenRun(mseed)
	if err != nil {
		return nil, err
	}
	r.goldens[key] = g
	return g, nil
}

// Run executes one (workload, mutant, machine-seed) unit: static
// classification first, then — for statically-missed mutants — a
// differential run against the golden run under the same machine
// seed. Silent results are the campaign's findings.
func (r *matrixRunner) Run(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
	mt, err := r.target(u.Name)
	if err != nil {
		return campaign.Result{}, err
	}
	img := make([]byte, len(mt.enc))
	mt.mutate(u.Mutant, img)
	o, dec := mt.classify(img)
	if o != StaticMissed {
		return campaign.Result{Status: o.String()}, nil
	}
	gold, err := r.golden(mt, u.Name, u.MSeed)
	if err != nil {
		return campaign.Result{}, err
	}
	mut := mt.newRef(dec, u.MSeed)
	mut.MaxInstrs = gold.budget()
	detected := diffDetects(mut, gold)
	res := campaign.Result{Status: StatusDetected, Instrs: mut.Issue()}
	if !detected {
		res.Status = StatusSilent
		res.Bad = true
		res.Detail = fmt.Sprintf("indistinguishable from golden under machine seed %d", u.MSeed)
	}
	return res, nil
}

// SeedRow is one machine seed's differential outcome over the
// statically-missed mutants.
type SeedRow struct {
	MSeed    int64
	Detected int
	Silent   int
}

// MatrixResult aggregates a mutant × machine-seed campaign.
type MatrixResult struct {
	Workloads int
	Mutants   int // per workload
	MSeeds    int
	Static    [4]int // per-mutant static classification (seed-independent)
	Seeds     []SeedRow
	// Combined is the number of statically-missed mutants detected
	// under at least one machine seed.
	Combined int
	// Silent lists mutants ("workload#mutant") silent under every seed.
	Silent []string

	// Aggregate is the engine's deterministic reduction; Stats the
	// run-dependent totals.
	Aggregate *campaign.Aggregate
	Stats     campaign.Stats
}

// StaticRate is the fraction of decodable stream-changing mutants the
// static verifier flags before execution: flagged / (flagged + missed).
// Rejected and masked mutants never reach the verifier.
func (r *MatrixResult) StaticRate() float64 {
	return r.rate(0)
}

// CombinedRate is the fraction of decodable stream-changing mutants
// caught by the static verifier or by the differential harness under
// any machine seed: (flagged + combined) / (flagged + missed). The
// denominator matches StaticRate, so the two rates are comparable.
func (r *MatrixResult) CombinedRate() float64 {
	return r.rate(r.Combined)
}

func (r *MatrixResult) rate(detected int) float64 {
	flagged, missed := r.Static[StaticFlagged], r.Static[StaticMissed]
	if flagged+missed == 0 {
		return 0
	}
	return float64(flagged+detected) / float64(flagged+missed)
}

// PrintSummary renders the matrix outcome: static totals, the
// per-seed differential breakdown, and the combined multi-seed rate.
func (r *MatrixResult) PrintSummary(w io.Writer) {
	fmt.Fprintf(w, "mutant matrix: %d workloads x %d mutants x %d machine seeds (%d units)\n",
		r.Workloads, r.Mutants, r.MSeeds, r.Workloads*r.Mutants*r.MSeeds)
	fmt.Fprintf(w, "static (per mutant): %d rejected, %d masked, %d flagged, %d missed\n",
		r.Static[StaticRejected], r.Static[StaticMasked],
		r.Static[StaticFlagged], r.Static[StaticMissed])
	fmt.Fprintf(w, "static detection %.1f%% of decodable stream-changing mutants\n", 100*r.StaticRate())
	for _, s := range r.Seeds {
		label := "baseline"
		if s.MSeed != 0 {
			label = "perturbed"
		}
		fmt.Fprintf(w, "  machine seed %d (%s): %d detected, %d silent of %d missed\n",
			s.MSeed, label, s.Detected, s.Silent, s.Detected+s.Silent)
	}
	fmt.Fprintf(w, "combined: %d of %d missed mutants detected under >=1 seed; combined detection %.1f%% of decodable stream-changing mutants\n",
		r.Combined, r.Static[StaticMissed], 100*r.CombinedRate())
	if len(r.Silent) == 0 {
		fmt.Fprintf(w, "silent under all seeds: none\n")
		return
	}
	fmt.Fprintf(w, "silent under all seeds: %d mutants\n", len(r.Silent))
	for _, s := range r.Silent {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

// RunMatrixCampaign executes the mutant × machine-seed matrix on the
// campaign engine configured by eng (workers, store, shard, progress);
// the driver sets eng.Reduce. Cancelling ctx stops dispatching units
// and leaves any store resumable.
func RunMatrixCampaign(ctx context.Context, cfg MatrixConfig, eng campaign.Config) (*MatrixResult, error) {
	cfg.fill()
	units := cfg.UnitMatrix()
	r := newMatrixRunner()
	out := &MatrixResult{
		Workloads: len(campaignWorkloads),
		Mutants:   cfg.Mutants,
		MSeeds:    cfg.MSeeds,
	}
	out.Seeds = make([]SeedRow, cfg.MSeeds)
	seeds := make(map[int64]*SeedRow, cfg.MSeeds)
	for ms := range out.Seeds {
		out.Seeds[ms].MSeed = int64(ms)
		seeds[int64(ms)] = &out.Seeds[ms]
	}
	// Reduce arrives in matrix order with machine seeds innermost, so
	// each mutant's fates are contiguous: track the current mutant and
	// flush its combined fate when the next one starts.
	var curKey string
	var curMissed, curDetected bool
	flush := func() {
		if curKey == "" || !curMissed {
			return
		}
		if curDetected {
			out.Combined++
		} else {
			out.Silent = append(out.Silent, curKey)
		}
	}
	eng.Reduce = func(i int, u campaign.Unit, res campaign.Result) {
		key := fmt.Sprintf("%s#%d", u.Name, u.Mutant)
		if key != curKey {
			flush()
			curKey, curMissed, curDetected = key, false, false
		}
		switch res.Status {
		case StatusDetected:
			curMissed = true
			curDetected = true
			seeds[u.MSeed].Detected++
		case StatusSilent:
			curMissed = true
			seeds[u.MSeed].Silent++
		default:
			// Static classification is machine-seed independent;
			// count each mutant once, at its baseline unit.
			if u.MSeed == 0 {
				for o := StaticRejected; o <= StaticMissed; o++ {
					if res.Status == o.String() {
						out.Static[o]++
					}
				}
			}
			return
		}
		if u.MSeed == 0 {
			out.Static[StaticMissed]++
		}
	}
	o, err := campaign.Run(ctx, eng, units, r.Run)
	if err != nil {
		return nil, err
	}
	flush()
	sort.Strings(out.Silent)
	out.Aggregate = o.Aggregate
	out.Stats = o.Stats
	return out, nil
}
