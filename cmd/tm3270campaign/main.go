// Command tm3270campaign runs the large-scale verification campaigns
// on the campaign engine: the differential conformance sweep (pipeline
// model vs reference model over generated programs) and the mutant ×
// machine-seed matrix. Campaigns are deterministic work-unit matrices;
// with -store every completed unit is persisted, so a killed campaign
// resumes exactly where it stopped and a finished one re-reads from
// the store without executing anything. Both kinds share one engine
// configuration (-workers, -store, -shards, -progress), built once and
// handed to the kind's driver; the store is opened once, under the
// chosen kind's fingerprint.
//
// Sharding: -shards i/n restricts this process to every n'th unit and
// writes records under a shard-specific file name, so n processes
// sharing one store directory run disjoint slices concurrently. After
// all shards finish (or die and are resumed), a final -shards 1/1 run
// over the same store is a pure cache read that emits the aggregate —
// byte-identical to an unsharded run.
//
// Usage:
//
//	tm3270campaign [-kind cosim|mutants] [-store dir] [-resume]
//	               [-shards i/n] [-seeds N] [-ops N]
//	               [-mutants N] [-mseeds N] [-workers N] [-json out]
//	               [-lockstep N] [-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tm3270/internal/campaign"
	"tm3270/internal/cosim"
	"tm3270/internal/faults"
)

func main() {
	kind := flag.String("kind", "cosim", "campaign kind: cosim or mutants")
	storeDir := flag.String("store", "", "store directory for resumable/sharded runs")
	resume := flag.Bool("resume", false, "allow reusing a store that already holds records")
	shards := flag.String("shards", "1/1", "this process's shard i/n of the unit matrix")
	seeds := flag.Int("seeds", 500, "cosim: generated programs per target")
	ops := flag.Int("ops", 64, "cosim: operation budget per generated program")
	lockstep := flag.Int("lockstep", 16, "cosim: run every Nth generated unit in lockstep (<0 disables)")
	mutants := flag.Int("mutants", 64, "mutants: single-bit flips per workload")
	mseeds := flag.Int("mseeds", 5, "mutants: machine seeds per mutant (incl. baseline 0)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write the deterministic aggregate JSON to this file (- for stdout)")
	progress := flag.Bool("progress", false, "print progress to stderr")
	flag.Parse()

	if err := run(*kind, *storeDir, *resume, *shards, *seeds, *ops,
		*lockstep, *mutants, *mseeds, *workers, *jsonOut, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "tm3270campaign:", err)
		os.Exit(1)
	}
}

func parseShard(s string) (campaign.Shard, error) {
	var sh campaign.Shard
	if _, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil {
		return sh, fmt.Errorf("malformed -shards %q (want i/n)", s)
	}
	return sh, sh.Validate()
}

// openStore opens the store when a directory was given, refusing to
// silently reuse prior records unless -resume acknowledges them.
func openStore(dir string, sh campaign.Shard, spec string, resume bool) (*campaign.Store, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := campaign.Open(dir, sh.Label(), spec)
	if err != nil {
		return nil, err
	}
	if st.Len() > 0 && !resume {
		st.Close()
		return nil, fmt.Errorf("store %s already holds %d records; pass -resume to continue it", dir, st.Len())
	}
	return st, nil
}

func progressFn(enabled bool) func(done, total, cached int) {
	if !enabled {
		return nil
	}
	last := -1
	return func(done, total, cached int) {
		pct := done * 100 / total
		if pct == last && done != total {
			return
		}
		last = pct
		fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d units (%d cached) %d%%", done, total, cached, pct)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func run(kind, storeDir string, resume bool, shards string, seeds, ops int,
	lockstep, mutants, mseeds, workers int, jsonOut string, progress bool) error {
	sh, err := parseShard(shards)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The kind picks its matrix and store fingerprint; the engine
	// settings are the same for both.
	eng := campaign.Config{Workers: workers, Shard: sh, Progress: progressFn(progress)}
	var spec string
	var execute func() (agg *campaign.Aggregate, stats campaign.Stats, bad int, err error)
	switch kind {
	case "cosim":
		cfg := cosim.CampaignConfig{Seeds: seeds, GenOps: ops, LockstepEvery: lockstep}
		spec = cfg.Spec()
		execute = func() (*campaign.Aggregate, campaign.Stats, int, error) {
			camp, err := cosim.RunCampaign(ctx, cfg, eng)
			if err != nil {
				return nil, campaign.Stats{}, 0, err
			}
			camp.PrintSummary(os.Stdout)
			return camp.Aggregate, camp.Stats, len(camp.Divergent), nil
		}
	case "mutants":
		cfg := faults.MatrixConfig{Mutants: mutants, MSeeds: mseeds}
		spec = cfg.Spec()
		execute = func() (*campaign.Aggregate, campaign.Stats, int, error) {
			res, err := faults.RunMatrixCampaign(ctx, cfg, eng)
			if err != nil {
				return nil, campaign.Stats{}, 0, err
			}
			res.PrintSummary(os.Stdout)
			return res.Aggregate, res.Stats, len(res.Silent), nil
		}
	default:
		return fmt.Errorf("unknown -kind %q (want cosim or mutants)", kind)
	}
	st, err := openStore(storeDir, sh, spec, resume)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
		eng.Store = st
	}
	agg, stats, bad, err := execute()
	if err != nil {
		return err
	}

	fmt.Printf("shard %s: %d units, %d executed, %d cached\n",
		sh, stats.Total, stats.Executed, stats.Cached)
	if jsonOut != "" {
		b, err := agg.MarshalJSONDeterministic()
		if err != nil {
			return err
		}
		if jsonOut == "-" {
			_, err = os.Stdout.Write(b)
		} else {
			err = os.WriteFile(jsonOut, b, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d bad units (divergent or silent)", bad)
	}
	if sh.Count > 1 {
		fmt.Printf("note: aggregate covers shard %s only; run -shards 1/1 -resume over the store for the full aggregate\n", sh)
	}
	return nil
}
