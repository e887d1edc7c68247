package faults_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/faults"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// parseSpecCases are the ParseSpec table of TestParseSpec; the
// accepted ones also seed TestSpecRoundTrip.
var parseSpecCases = []struct {
	in    string
	want  faults.Spec
	isErr bool
}{
	{in: "bitflip", want: faults.Spec{Kind: faults.BitFlip, Rate: 0.01, Delay: 200}},
	{in: "droppf:0.5", want: faults.Spec{Kind: faults.DropPrefetch, Rate: 0.5, Delay: 200}},
	{in: "busdelay:0.1:400", want: faults.Spec{Kind: faults.BusDelay, Rate: 0.1, Delay: 400}},
	{in: "loadflip::321", want: faults.Spec{Kind: faults.LoadFlip, Rate: 0.01, Delay: 321}},
	{in: "nosuch", isErr: true},
	{in: "bitflip:2", isErr: true},
	{in: "bitflip:0.5:-1", isErr: true},
	{in: "bitflip:0.5:10:extra", isErr: true},
}

func TestParseSpec(t *testing.T) {
	for _, c := range parseSpecCases {
		got, err := faults.ParseSpec(c.in)
		if c.isErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// faultCampaign runs the fault campaign once per test binary and shares
// its result; TestCampaignDeterminism runs it a second time.
var faultCampaign = sync.OnceValues(func() (*faults.CampaignResult, error) {
	var sb strings.Builder
	res, err := faults.RunCampaign(context.Background(), &sb)
	if err == nil && strings.Count(sb.String(), "\n") != res.Runs() {
		err = fmt.Errorf("campaign printed %d classification lines for %d runs",
			strings.Count(sb.String(), "\n"), res.Runs())
	}
	return res, err
})

// TestSpecRoundTrip: every spec the campaign prints replays through
// ParseSpec (as tm3270sim -inject takes it) to the same injector.
func TestSpecRoundTrip(t *testing.T) {
	res, err := faultCampaign()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[faults.Spec]bool{}
	var specs []faults.Spec
	for _, r := range res.Reports {
		if !seen[r.Spec] {
			seen[r.Spec] = true
			specs = append(specs, r.Spec)
		}
	}
	if len(specs) != 4 {
		t.Fatalf("campaign swept %d injectors, want 4", len(specs))
	}
	for _, c := range parseSpecCases {
		if !c.isErr {
			specs = append(specs, c.want)
		}
	}
	for _, s := range specs {
		got, err := faults.ParseSpec(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", s.String(), got, err, s)
		}
	}
}

// isDetected reports whether a run's fault surfaced.
func isDetected(o faults.Outcome) bool {
	return o == faults.DetectedTrap || o == faults.DetectedDivergence
}

// TestCampaignSmall runs the campaign at its workloads.Small() sizes:
// every run must classify without a hang or panic, and the memcpy
// bit-flip runs must detect at least one fault (a flipped source byte
// propagates to the output).
func TestCampaignSmall(t *testing.T) {
	res, err := faultCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs() != 4*4*13 {
		t.Fatalf("campaign ran %d runs, want 208", res.Runs())
	}
	total := res.Counts[faults.Masked] + res.Counts[faults.NotInjected] +
		res.Counts[faults.DetectedTrap] + res.Counts[faults.DetectedDivergence]
	if total != res.Runs() {
		t.Errorf("outcome counts sum to %d, want %d", total, res.Runs())
	}

	// memcpy copies every source byte: a bit flip inside the source
	// region must surface as a divergence for at least one seed.
	detected := 0
	for _, r := range res.Reports {
		if r.Workload == "memcpy" && r.Spec.Kind == faults.BitFlip && isDetected(r.Outcome) {
			detected++
		}
	}
	if detected == 0 {
		t.Error("no memcpy bitflip run detected its fault")
	}

	// Dropped prefetches are performance faults: they must never
	// corrupt functional state.
	for _, r := range res.Reports {
		if r.Spec.Kind == faults.DropPrefetch && isDetected(r.Outcome) {
			t.Errorf("%s droppf seed %d classified %s: a dropped prefetch must be functionally invisible (%s)",
				r.Workload, r.Seed, r.Outcome, r.Detail)
		}
	}
}

// TestCampaignDeterminism: a second campaign must reproduce the same
// classifications and the same injection counts.
func TestCampaignDeterminism(t *testing.T) {
	a, err := faultCampaign()
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.RunCampaign(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i] != b.Reports[i] {
			t.Errorf("run %d differs:\n  %+v\n  %+v", i, a.Reports[i], b.Reports[i])
		}
	}
}

// TestCampaignCanceled: a canceled context stops the campaign and
// returns ctx.Err() itself, not a classified trap.
func TestCampaignCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := faults.RunCampaign(ctx, nil)
	if err != ctx.Err() {
		t.Fatalf("canceled campaign returned (%v, %v), want ctx.Err() = %v", res, err, ctx.Err())
	}
}

// TestLoadFlipSparesOutputCheck: a load-fault injector taps the
// program's loads only. The workload's own output check reads the
// image after execution has ended, so a full run (execute, then check)
// must log exactly the events of the same run without a check.
func TestLoadFlipSparesOutputCheck(t *testing.T) {
	spec, err := faults.ParseSpec("loadflip:0.001")
	if err != nil {
		t.Fatal(err)
	}
	events := func(name string, seed int64, check bool) ([]faults.Event, error) {
		w, err := workloads.ByName(name, workloads.Small())
		if err != nil {
			t.Fatal(err)
		}
		if !check {
			w.Check = nil
		}
		inj := faults.New(spec, seed)
		_, runErr := runner.RunContext(context.Background(), w, config.TM3270(),
			runner.WithMachineSetup(inj.Arm))
		return inj.Events, runErr
	}
	for _, name := range []string{"mpeg2_b", "mp3_synth"} {
		for seed := int64(1); seed <= 3; seed++ {
			exec, err := events(name, seed, false)
			if err != nil {
				t.Fatalf("%s seed %d without check: %v", name, seed, err)
			}
			full, _ := events(name, seed, true)
			if len(full) != len(exec) {
				t.Errorf("%s seed %d: %d injector events with the output check, %d without",
					name, seed, len(full), len(exec))
			}
		}
	}
	// The reproducer: one flip during execution, and the check passes.
	if ev, err := events("mp3_synth", 1, true); len(ev) != 1 || err != nil {
		t.Errorf("mp3_synth seed 1: %d events, err %v; want 1 event and a passing check", len(ev), err)
	}
}
