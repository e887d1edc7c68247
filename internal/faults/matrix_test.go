package faults_test

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tm3270/internal/campaign"
	"tm3270/internal/faults"
)

// TestMatrixCampaign runs the full mutant × machine-seed matrix and
// asserts the headline properties: every mutant is classified once,
// the verifier flags some of them before execution, every seed
// partitions the missed mutants into detected + silent, and the
// combined multi-seed rate is at least the baseline seed's rate.
// TestMutantGolden pins the classification itself.
func TestMatrixCampaign(t *testing.T) {
	res, err := faults.RunMatrixCampaign(context.Background(), faults.MatrixConfig{}, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	classified := 0
	for _, n := range res.Static {
		classified += n
	}
	if want := res.Workloads * res.Mutants; classified != want {
		t.Errorf("classified %d mutants, want %d", classified, want)
	}
	if res.Static[faults.StaticFlagged] == 0 {
		t.Errorf("no mutant was flagged statically: %v", res.Static)
	}
	var b strings.Builder
	res.PrintSummary(&b)
	if !strings.Contains(b.String(), "static detection") {
		t.Errorf("summary missing the static rate line:\n%s", b.String())
	}
	missed := res.Static[faults.StaticMissed]
	if len(res.Seeds) != res.MSeeds {
		t.Fatalf("%d seed rows, want %d", len(res.Seeds), res.MSeeds)
	}
	var baseline float64
	for _, s := range res.Seeds {
		if s.Detected+s.Silent != missed {
			t.Errorf("seed %d: detected %d + silent %d != missed %d",
				s.MSeed, s.Detected, s.Silent, missed)
		}
		if s.MSeed == 0 && missed > 0 {
			baseline = float64(s.Detected) / float64(missed)
		}
	}
	if res.Combined < int(baseline*float64(missed)) {
		t.Errorf("combined %d below baseline seed's %d", res.Combined, int(baseline*float64(missed)))
	}
	if res.Combined+len(res.Silent) != missed {
		t.Errorf("combined %d + silent %d != missed %d", res.Combined, len(res.Silent), missed)
	}
	// The acceptance bar: multi-seed differential detection >= 99% of
	// decodable stream-changing mutants, silent mutants enumerated.
	if rate := res.CombinedRate(); rate < 0.99 {
		t.Errorf("combined detection rate %.3f below 0.99 (silent: %v)", rate, res.Silent)
	}
}

// TestMatrixBaselineSeedBeatsStatic: executing the statically-missed
// mutants on the reference model under the single unperturbed machine
// seed and diffing against the golden run strictly raises the
// detection rate over the static verifier alone.
func TestMatrixBaselineSeedBeatsStatic(t *testing.T) {
	res, err := faults.RunMatrixCampaign(context.Background(), faults.MatrixConfig{MSeeds: 1}, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	static, combined := res.StaticRate(), res.CombinedRate()
	if static <= 0 || combined <= static {
		t.Errorf("combined detection %.3f not above static %.3f", combined, static)
	}
}

// TestStaticCampaignFlagsMutants runs a reduced matrix (12 mutants
// per workload, baseline seed only) and asserts the
// static acceptance property: every mutant is classified once, some
// still-decodable mutants change the instruction stream, and the
// verifier flags a nonzero fraction of them before execution.
func TestStaticCampaignFlagsMutants(t *testing.T) {
	cfg := faults.MatrixConfig{Mutants: 12, MSeeds: 1}
	res, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads != 4 || res.Mutants != 12 {
		t.Fatalf("matrix %d × %d, want 4 × 12", res.Workloads, res.Mutants)
	}
	total := 0
	for _, n := range res.Static {
		total += n
	}
	if total != 4*12 {
		t.Errorf("classified %d mutants, want %d", total, 4*12)
	}
	if res.Static[faults.StaticFlagged] == 0 {
		t.Errorf("no mutant was flagged statically: %v", res.Static)
	}
	if r := res.StaticRate(); r <= 0 || r > 1 {
		t.Errorf("static detection rate %v outside (0, 1]", r)
	}
	var b strings.Builder
	res.PrintSummary(&b)
	if !strings.Contains(b.String(), "static detection") {
		t.Errorf("summary missing the static rate line:\n%s", b.String())
	}
}

// TestStaticCampaignIsDeterministic: same seeds, same static
// classification.
func TestStaticCampaignIsDeterministic(t *testing.T) {
	cfg := faults.MatrixConfig{Mutants: 8, MSeeds: 1}
	a, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Static != b.Static {
		t.Errorf("static classification differs: %v vs %v", a.Static, b.Static)
	}
}

// TestDifferentialDeterminism: same seeds, same mutants, same
// per-seed detection and the same silent mutants.
func TestDifferentialDeterminism(t *testing.T) {
	cfg := faults.MatrixConfig{Mutants: 8, MSeeds: 2}
	a, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.Combined != b.Combined ||
		!reflect.DeepEqual(a.Silent, b.Silent) {
		t.Errorf("campaign not deterministic:\n  %+v %d %v\n  %+v %d %v",
			a.Seeds, a.Combined, a.Silent, b.Seeds, b.Combined, b.Silent)
	}
}

// TestMatrixResumeByteIdentical kills nothing but proves the store
// contract on the mutant matrix: a fresh run into a store and a pure
// cache-read re-run produce byte-identical aggregates, and so do two
// fresh in-memory runs on one worker and on four.
func TestMatrixResumeByteIdentical(t *testing.T) {
	cfg := faults.MatrixConfig{Mutants: 4, MSeeds: 2}
	dir := filepath.Join(t.TempDir(), "store")
	runOnce := func() (*faults.MatrixResult, []byte) {
		st, err := campaign.Open(dir, campaign.Shard{}.Label(), cfg.Spec())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		res, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Aggregate.MarshalJSONDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	fresh, fb := runOnce()
	if fresh.Stats.Executed == 0 {
		t.Fatal("fresh run executed no units")
	}
	resumed, rb := runOnce()
	if resumed.Stats.Executed != 0 {
		t.Errorf("resumed run executed %d units, want pure cache read", resumed.Stats.Executed)
	}
	if resumed.Stats.Cached != fresh.Stats.Total {
		t.Errorf("resumed run cached %d of %d units", resumed.Stats.Cached, fresh.Stats.Total)
	}
	if !bytes.Equal(fb, rb) {
		t.Errorf("aggregates differ:\nfresh:\n%s\nresumed:\n%s", fb, rb)
	}

	inMemory := func(workers int) []byte {
		res, err := faults.RunMatrixCampaign(context.Background(), cfg, campaign.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Aggregate.MarshalJSONDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if serial, par := inMemory(1), inMemory(4); !bytes.Equal(serial, par) {
		t.Errorf("aggregates differ across worker counts:\n1 worker:\n%s\n4 workers:\n%s", serial, par)
	}
}

// TestMatrixSpec: the matrix store fingerprint ignores the mutant and
// machine-seed counts and keeps the exact value stores were written
// under, so they still resume.
func TestMatrixSpec(t *testing.T) {
	const want = "mutmatrix params=1adaa4ec8084"
	for _, cfg := range []faults.MatrixConfig{{}, {Mutants: 4, MSeeds: 2}} {
		if got := cfg.Spec(); got != want {
			t.Errorf("%+v: spec = %q, want %q", cfg, got, want)
		}
	}
}
