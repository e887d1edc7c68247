package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"tm3270/internal/config"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tinyRun measures one workload at test scale: tiny inputs and the
// minimum two passes.
func tinyRun(t *testing.T, workload string, seed int64, traced bool) *record {
	t.Helper()
	rec, _, err := measure(context.Background(), &options{workload: workload, seed: seed, traced: traced, tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rec
}

// summaryMetrics decodes the summary line's metrics.
func summaryMetrics(t *testing.T, rec *record) map[string]reading {
	t.Helper()
	line, err := summaryLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool              `json:"correct"`
		Attempted *int               `json:"attempted"`
		Failed    *int               `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("summary line lacks a key: %s", line)
	}
	return out.Metrics
}

// TestWorkloadsSmoke runs every workload untraced and traced at test
// scale: outputs correct, every metric named and with a unit.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloadTable {
		for _, traced := range []bool{false, true} {
			rec := tinyRun(t, w.name, 1, traced)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			if ff := rec.Metrics["fail_frac"]; ff.Value != 0 || ff.Unit == "" {
				t.Errorf("%s: fail_frac = %+v, want 0 with a unit", w.name, ff)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := summaryMetrics(t, rec)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(got), len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				if !ok || m.Unit == "" || !metricName.MatchString(d.Name) {
					t.Errorf("%s traced=%v: metric %q = %+v, want a well-formed name with a unit", w.name, traced, d.Name, m)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if got[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, got[d.Name].Value)
					}
				}
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// A wrong expectation must trip the gate, fail the op and the run.
func TestCorruptedExpectationTripsGate(t *testing.T) {
	g := &gates{}
	b, err := setupLint(&options{seed: 1, tiny: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	b.(*lintBench).wantSkips++
	b.pass(context.Background(), nil, 0)
	b.pass(context.Background(), nil, 1)
	b.finish(context.Background())
	if g.correct() || g.failed != 1 || len(g.failures) != 1 {
		t.Fatalf("corrupted skip pin: correct=%v failed=%d failures=%v, want exactly one failure",
			g.correct(), g.failed, g.failures)
	}

	g = &gates{}
	sb, err := setupServe(&options{seed: 1, tiny: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.release()
	for i := range sb.(*serveBench).clients[0].sessions {
		sb.(*serveBench).clients[0].sessions[i].cycles++
	}
	sb.pass(context.Background(), nil, 0)
	if g.correct() || g.failed == 0 {
		t.Fatal("corrupted expected cycles did not fail any request")
	}
}

// Seeds change every generated campaign program, never the metric set.
func TestSeedsChangeInputsNotMetrics(t *testing.T) {
	targets := []config.Target{config.ConfigA(), config.ConfigD()}
	u1, u2 := campaignUnits(1, 8, targets), campaignUnits(2, 8, targets)
	if len(u1) != len(u2) {
		t.Fatalf("unit counts differ: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i].Hash() == u2[i].Hash() {
			t.Errorf("unit %d has the same hash under seeds 1 and 2", i)
		}
	}
	names := func(rec *record) []string {
		var out []string
		for n := range summaryMetrics(t, rec) {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	a, b := names(tinyRun(t, "campaign-cosim", 1, false)), names(tinyRun(t, "campaign-cosim", 2, false))
	if len(a) != len(b) {
		t.Fatalf("metric sets differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("metric sets differ: %v vs %v", a, b)
		}
	}
}

// The traced run writes valid Chrome trace-event JSON, and no span's
// self time exceeds the op it belongs to.
func TestTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	o := &options{workload: "campaign-cosim", seed: 1, traced: true, tiny: true, spansOut: path}
	rec, tr, err := measure(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, tr.writeSpans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("spans file is not a JSON event array: %v", err)
	}
	spans := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		spans++
		if _, ok := e.Args["op"]; !ok {
			t.Fatalf("span %s carries no op id", e.Name)
		}
		if _, ok := e.Args["parent"]; !ok && e.Name != "bench.op" {
			t.Fatalf("child span %s names no parent", e.Name)
		}
	}
	if spans == 0 {
		t.Fatal("no spans exported")
	}
	op := rec.Layers["bench.op"]
	var self float64
	for name, row := range rec.Layers {
		if row.SelfMS > op.TotalMS {
			t.Errorf("%s self time %.3f ms exceeds the op total %.3f ms", name, row.SelfMS, op.TotalMS)
		}
		self += row.SelfMS
	}
	if d := self - op.TotalMS; d > 1e-6 || d < -1e-6 {
		t.Errorf("self times sum to %.6f ms, want the op total %.6f ms", self, op.TotalMS)
	}
}

// BENCHMARK.json at the repository root declares exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %d workloads, want %d", len(bj.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, want %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, want %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
}
