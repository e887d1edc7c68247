package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"tm3270/internal/campaign"
)

// testUnits builds a small deterministic matrix.
func testUnits(n int) []campaign.Unit {
	units := make([]campaign.Unit, n)
	for i := range units {
		units[i] = campaign.Unit{Kind: "t", Seed: int64(i + 1)}
	}
	return units
}

// runFn is a deterministic unit function: status derives from the
// seed, every third unit is bad.
func runFn(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
	r := campaign.Result{Status: fmt.Sprintf("s%d", u.Seed%2), Instrs: u.Seed * 10}
	if u.Seed%3 == 0 {
		r.Bad = true
	}
	return r, nil
}

// TestShardCovers: the shard selectors partition the matrix — every
// index covered exactly once across the shard set.
func TestShardCovers(t *testing.T) {
	units := testUnits(11)
	seen := make([]int, len(units))
	for idx := 1; idx <= 3; idx++ {
		sh := campaign.Shard{Index: idx, Count: 3}
		out, err := campaign.Run(context.Background(), campaign.Config{Shard: sh}, units, runFn)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Total == 0 {
			t.Errorf("shard %s covered nothing", sh)
		}
		got := 0
		_, err = campaign.Run(context.Background(), campaign.Config{
			Shard: sh,
			Reduce: func(i int, u campaign.Unit, r campaign.Result) {
				seen[i]++
				got++
			},
		}, units, runFn)
		if err != nil {
			t.Fatal(err)
		}
		if got != out.Stats.Total {
			t.Errorf("shard %s reduced %d units, stats say %d", sh, got, out.Stats.Total)
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("unit %d covered %d times across shards", i, n)
		}
	}
	if err := (campaign.Shard{Index: 4, Count: 3}).Validate(); err == nil {
		t.Error("shard 4/3 validated")
	}
	if got := (campaign.Shard{}).Label(); got != "1of1" {
		t.Errorf("zero shard label %q", got)
	}
}

// TestEngineResume: a store-backed run resumes as a pure cache read
// with a byte-identical aggregate, and partial stores re-run only the
// missing units.
func TestEngineResume(t *testing.T) {
	units := testUnits(10)
	dir := t.TempDir()

	st := openStore(t, dir, "1of1", "s")
	out1, err := campaign.Run(context.Background(), campaign.Config{Store: st}, units, runFn)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	bad := 0
	for _, u := range units {
		if r, _ := runFn(context.Background(), u); r.Bad {
			bad++
		}
	}
	if want := (campaign.Stats{Total: len(units), Executed: len(units), Bad: bad}); out1.Stats != want {
		t.Fatalf("fresh run stats %+v, want %+v", out1.Stats, want)
	}

	re := openStore(t, dir, "1of1", "s")
	var executed int64
	out2, err := campaign.Run(context.Background(), campaign.Config{Store: re},
		units, func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
			atomic.AddInt64(&executed, 1)
			return runFn(ctx, u)
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := (campaign.Stats{Total: len(units), Cached: len(units), Bad: bad}); executed != 0 || out2.Stats != want {
		t.Fatalf("resume executed %d units, stats %+v, want %+v", executed, out2.Stats, want)
	}
	a, b := marshalAgg(t, out1.Aggregate), marshalAgg(t, out2.Aggregate)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed aggregate differs:\n%s\nvs\n%s", a, b)
	}
}

// TestEngineShardMerge: shards run as separate store sessions; the
// final full pass over the merged store is a pure cache read whose
// aggregate is byte-identical to an unsharded in-memory run.
func TestEngineShardMerge(t *testing.T) {
	units := testUnits(13)
	refStore := openStore(t, t.TempDir(), "1of1", "s")
	ref, err := campaign.Run(context.Background(), campaign.Config{Store: refStore}, units, runFn)
	if err != nil {
		t.Fatal(err)
	}
	refStore.Close()

	dir := t.TempDir()
	for idx := 1; idx <= 3; idx++ {
		sh := campaign.Shard{Index: idx, Count: 3}
		st := openStore(t, dir, sh.Label(), "s")
		if _, err := campaign.Run(context.Background(), campaign.Config{Store: st, Shard: sh}, units, runFn); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	merged := openStore(t, dir, "1of1", "s")
	out, err := campaign.Run(context.Background(), campaign.Config{Store: merged},
		units, func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
			return campaign.Result{}, errors.New("merge pass must not execute")
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cached != len(units) {
		t.Fatalf("merge pass cached %d of %d", out.Stats.Cached, len(units))
	}
	a, b := marshalAgg(t, ref.Aggregate), marshalAgg(t, out.Aggregate)
	if !bytes.Equal(a, b) {
		t.Errorf("sharded+merged aggregate differs from unsharded:\n%s\nvs\n%s", a, b)
	}
}

// TestEngineUnitErrorAborts: a unit error fails the run but the store
// keeps every completed unit, so a rerun resumes instead of starting
// over.
func TestEngineUnitErrorAborts(t *testing.T) {
	units := testUnits(8)
	dir := t.TempDir()
	st := openStore(t, dir, "1of1", "s")
	_, err := campaign.Run(context.Background(), campaign.Config{Store: st, Workers: 1},
		units, func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
			if u.Seed == 5 {
				return campaign.Result{}, errors.New("boom")
			}
			return runFn(ctx, u)
		})
	if err == nil {
		t.Fatal("unit error did not abort the run")
	}
	st.Close()

	re := openStore(t, dir, "1of1", "s")
	if re.Len() == 0 {
		t.Fatal("aborted run persisted nothing")
	}
	out, err := campaign.Run(context.Background(), campaign.Config{Store: re}, units, runFn)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cached == 0 || out.Stats.Cached+out.Stats.Executed != len(units) {
		t.Errorf("rerun stats %+v", out.Stats)
	}
}

// TestEngineDuplicateHash: two identical unit specs in one matrix are
// a caller bug the engine must reject, not silently collapse.
func TestEngineDuplicateHash(t *testing.T) {
	units := []campaign.Unit{{Kind: "t", Seed: 1}, {Kind: "t", Seed: 1}}
	if _, err := campaign.Run(context.Background(), campaign.Config{}, units, runFn); err == nil {
		t.Fatal("duplicate unit hashes accepted")
	}
}

// TestEngineCancel: canceling the context aborts the run with the
// context's error.
func TestEngineCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	units := testUnits(50)
	n := int64(0)
	_, err := campaign.Run(ctx, campaign.Config{Workers: 1},
		units, func(ctx context.Context, u campaign.Unit) (campaign.Result, error) {
			if atomic.AddInt64(&n, 1) == 3 {
				cancel()
			}
			return runFn(ctx, u)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineProgress: the progress hook sees monotone done counts and
// ends at the covered total.
func TestEngineProgress(t *testing.T) {
	units := testUnits(9)
	lastDone, calls := -1, 0
	_, err := campaign.Run(context.Background(), campaign.Config{
		Workers: 1,
		Progress: func(done, total, cached int) {
			calls++
			if done <= lastDone || total != len(units) {
				t.Errorf("progress done=%d (last %d) total=%d", done, lastDone, total)
			}
			lastDone = done
		},
	}, units, runFn)
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != len(units) || calls == 0 {
		t.Errorf("progress ended at %d after %d calls", lastDone, calls)
	}
}
