package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/campaign"
)

// TestHashStability pins the content-address scheme with golden
// values: a unit's hash is the store's lookup key, so an accidental
// change to the salt, the struct encoding or the truncation silently
// invalidates every existing store. Changing the scheme on purpose
// must come with a new hashSalt version — and new goldens here.
func TestHashStability(t *testing.T) {
	golden := []struct {
		u    campaign.Unit
		hash string
	}{
		{campaign.Unit{Kind: "cosim-gen", Seed: 7, Ops: 64, Target: "TM3270"},
			"5a2ebab9f998c3602d24af7f"},
		{campaign.Unit{Kind: "cosim-gen", Seed: 7, Ops: 64, Target: "TM3270", Lockstep: true},
			"aa36e7f6c348a75339164f5b"},
		{campaign.Unit{Kind: "cosim-wl", Name: "memset", Target: "TM3260"},
			"adb439e0dca36b0acedb93ce"},
		{campaign.Unit{Kind: "mutant", Name: "blockwalk_pf", Target: "TM3270", Mutant: 24, MSeed: 3},
			"ac3417b92e57c059704147cb"},
	}
	for _, g := range golden {
		if got := g.u.Hash(); got != g.hash {
			t.Errorf("%s: hash %s, want golden %s", g.u, got, g.hash)
		}
	}
}

func openStore(t *testing.T, dir, shard, spec string) *campaign.Store {
	t.Helper()
	st, err := campaign.Open(dir, shard, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreRoundTrip: appended records come back on reopen, keyed by
// unit hash.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := campaign.Unit{Kind: "cosim-gen", Seed: 1, Ops: 8}
	r := campaign.Result{Status: "ok", Instrs: 42}
	st := openStore(t, dir, "1of1", "spec-a")
	if err := st.Append(u, r); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Have(u.Hash()); !ok || got != r {
		t.Fatalf("Have after Append = %+v, %v", got, ok)
	}
	st.Close()

	re := openStore(t, dir, "1of1", "spec-a")
	if got, ok := re.Have(u.Hash()); !ok || got != r {
		t.Fatalf("Have after reopen = %+v, %v", got, ok)
	}
	if re.Corrupt() != 0 || re.Torn() != 0 {
		t.Errorf("clean store reports corrupt=%d torn=%d", re.Corrupt(), re.Torn())
	}
}

// TestStoreSpecBinding: a store directory is bound to one campaign
// fingerprint; opening it under another spec must fail rather than
// serve alien results.
func TestStoreSpecBinding(t *testing.T) {
	dir := t.TempDir()
	openStore(t, dir, "1of1", "spec-a").Close()
	if _, err := campaign.Open(dir, "1of1", "spec-b"); err == nil {
		t.Fatal("opening a spec-a store as spec-b succeeded")
	}
}

// TestStoreTornFinalLine: a SIGKILLed writer leaves an unterminated
// final line; open must drop exactly that record (counting it as torn,
// not corrupt) and keep everything before it.
func TestStoreTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "1of1", "s")
	keep := campaign.Unit{Kind: "k", Seed: 1}
	lost := campaign.Unit{Kind: "k", Seed: 2}
	if err := st.Append(keep, campaign.Result{Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(lost, campaign.Result{Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, "records-1of1.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: drop the terminator and the record's tail.
	if err := os.WriteFile(path, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, "1of1", "s")
	if _, ok := re.Have(keep.Hash()); !ok {
		t.Error("record before the torn line was dropped")
	}
	if _, ok := re.Have(lost.Hash()); ok {
		t.Error("torn record was resurrected")
	}
	if re.Torn() != 1 || re.Corrupt() != 0 {
		t.Errorf("torn=%d corrupt=%d, want 1/0", re.Torn(), re.Corrupt())
	}
}

// TestStoreCorruptRecord: a flipped byte in an interior record fails
// the checksum; the record is dropped and counted corrupt while its
// neighbors survive.
func TestStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "1of1", "s")
	units := []campaign.Unit{{Kind: "k", Seed: 1}, {Kind: "k", Seed: 2}, {Kind: "k", Seed: 3}}
	for _, u := range units {
		if err := st.Append(u, campaign.Result{Status: "ok", Instrs: u.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, "records-1of1.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	// Flip a digit inside the middle record's instruction count.
	lines[1] = strings.Replace(lines[1], `"instrs":2`, `"instrs":9`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, "1of1", "s")
	if re.Corrupt() != 1 || re.Torn() != 0 {
		t.Errorf("corrupt=%d torn=%d, want 1/0", re.Corrupt(), re.Torn())
	}
	if _, ok := re.Have(units[1].Hash()); ok {
		t.Error("checksum-corrupt record served")
	}
	for _, u := range []campaign.Unit{units[0], units[2]} {
		if _, ok := re.Have(u.Hash()); !ok {
			t.Errorf("intact record %s dropped", u)
		}
	}
}

func marshalAgg(t *testing.T, a *campaign.Aggregate) []byte {
	t.Helper()
	b, err := a.MarshalJSONDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAggregateDeterministicBytes: two structurally equal aggregates
// render byte-identically (sorted map keys, stable field order).
func TestAggregateDeterministicBytes(t *testing.T) {
	mk := func() *campaign.Aggregate {
		return &campaign.Aggregate{
			Spec:  "s",
			Units: 3,
			ByStatus: map[string]int{
				"zeta": 1, "ok": 1, "alpha": 1,
			},
			Instrs: 99,
			Bad: []campaign.Finding{
				{Unit: campaign.Unit{Kind: "k", Seed: 2}, Result: campaign.Result{Status: "zeta", Bad: true}},
			},
		}
	}
	if a, b := marshalAgg(t, mk()), marshalAgg(t, mk()); !bytes.Equal(a, b) {
		t.Errorf("equal aggregates rendered differently:\n%s\nvs\n%s", a, b)
	}
}
