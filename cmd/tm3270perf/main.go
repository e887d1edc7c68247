// Command tm3270perf is the repository's host-performance benchmark. One
// invocation runs one workload in its own process for a fixed measuring
// window, checks the program's outputs, and prints every metric by name
// with its unit; the last line of standard output is a JSON summary.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run . -workload suite-full -seed 1 [-seconds 30] [-trace 1]
//	         [-json runs.jsonl] [-spans spans.json]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//	go run . compare parent.jsonl change.jsonl
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) alternate untraced and traced passes and report the
// per-layer ledger: spans recorded around every call into the program,
// folded into self times. See README.md for the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench is a workload after set-up, ready to run passes. A pass is the
// workload's fixed batch of ops and returns each op's latency.
type bench interface {
	opsPerPass() int
	// parts is how many pieces a pass is split into. A run alternates
	// them and times each piece on its own; pass_s adds up the pieces'
	// medians.
	parts() int
	// pass runs one batch, or piece part of it; tr is nil on untraced
	// passes.
	pass(ctx context.Context, tr *tracer, part int) []time.Duration
	// info adds end-to-end readings specific to the workload.
	info(m map[string]float64)
	// layerMetrics adds per-layer readings from the traced passes.
	layerMetrics(m map[string]float64)
	// finish runs the end-of-run correctness gates.
	finish(ctx context.Context)
	// release frees the bench's resources.
	release()
}

type workload struct {
	name string
	why  string
	// serial workloads do their work on one goroutine, so heap
	// allocations can be charged to spans.
	serial bool
	setup  func(o *options, g *gates) (bench, error)
}

var workloadTable = []workload{
	{name: "suite-full", serial: true, setup: setupSuite,
		why: "26 workloads on config D at 352x240 frames, still larger than the 128 KB D$, from precompiled code, serially; seed permutes order. Execute loop and cache models dominate, no compile"},
	{name: "lint-all", serial: true, setup: setupLint,
		why: "26 workloads x configs A and D in two alternating halves: fresh compile, static verify and cycle bound, serially; seed permutes order. Compile and binverify, no execution"},
	{name: "campaign-cosim", setup: setupCampaign,
		why: "cosim campaign of 4,000 generated 64-op programs on configs A-D, 1 worker, fresh store then resume; seed offsets program seeds. Cold compile and translate per unit"},
	{name: "serve-mix", setup: setupServe,
		why: "closed loop: 2 HTTP clients x 6 cached sessions on a 2-worker service; seed picks sessions. Admit, queue, short execute and JSON reply per request"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spansOut string
	// tiny shrinks every workload's inputs and batches (tests).
	tiny bool
}

const (
	// Set-up runs at least minSetups times and repeats, up to maxSetups,
	// until setupBudget is spent; setup_s is the median. Cheap set-ups
	// thus get many samples and a steady median.
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
	// minPasses is the fewest passes a run makes, whatever its window.
	minPasses = 2
)

// gates tallies the correctness checks of one run. An op is one unit of
// the workload's work or one run-level check; it fails when any of its
// checks fails.
type gates struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

const maxFailures = 20

// check records a failure message unless ok, and returns ok.
func (g *gates) check(ok bool, format string, args ...any) bool {
	if !ok {
		g.fail(format, args...)
	}
	return ok
}

func (g *gates) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < maxFailures {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted op.
func (g *gates) op(ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
	}
}

func (g *gates) correct() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed == 0 && len(g.failures) == 0 && g.attempted > 0
}

// reading is one reported metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples summarizes the per-pass or per-op values behind a timing.
	Samples *summary `json:"samples,omitempty"`
	// Percentile and Beyond describe op_tail_ms: which percentile it
	// is and how many samples lie beyond it.
	Percentile float64 `json:"percentile,omitempty"`
	Beyond     int     `json:"beyond,omitempty"`
}

// record is one run's full result, appended as a JSON line by -json and
// read back by compare.
type record struct {
	Schema    string   `json:"schema"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Passes    int      `json:"passes"`
	// PassWalls are the untraced passes' wall times, part by part, each
	// in run order.
	PassWalls [][]float64         `json:"pass_walls_s"`
	Metrics   map[string]reading  `json:"metrics"`
	Layers    map[string]layerRow `json:"layers,omitempty"`
}

const schema = "tm3270perf/v1"

// measure runs one workload: set-up (repeated), passes until the window
// is spent, then the end-of-run gates. It returns the full record and
// the tracer (nil when untraced).
func measure(ctx context.Context, o *options) (*record, *tracer, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	g := &gates{}
	var b bench
	var setups []time.Duration
	minN, budget := minSetups, setupBudget
	if o.tiny {
		minN, budget = 1, 0
	}
	for spent := time.Duration(0); len(setups) < minN || (spent < budget && len(setups) < maxSetups); {
		if b != nil {
			b.release()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = w.setup(o, g); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		spent += setups[len(setups)-1]
	}
	defer b.release()

	var tr *tracer
	if o.traced {
		tr = newTracer(w.name, w.serial, o.spansOut != "")
	}
	parts := b.parts()
	var (
		// Untraced passes, per part: wall times and median op latencies.
		walls            = make([][]time.Duration, parts)
		opMedians        = make([][]float64, parts)
		all, tracedWalls []time.Duration
		lat              []time.Duration
		rt               runtimeDelta
	)
	need := minPasses * parts
	if o.tiny && tr == nil {
		need = parts
	}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if i >= need && time.Since(start)+median(all) > window {
			break
		}
		// Every pass starts from a collected heap, so garbage an earlier
		// pass left is not charged to this one.
		runtime.GC()
		traced, n := false, i
		if tr != nil {
			traced, n = i%2 == 1, i/2
		}
		part := n % parts
		if traced {
			before := readRuntime()
			t0 := time.Now()
			b.pass(ctx, tr, part)
			tracedWalls = append(tracedWalls, time.Since(t0))
			all = append(all, tracedWalls[len(tracedWalls)-1])
			rt.add(before, readRuntime())
			continue
		}
		t0 := time.Now()
		ops := b.pass(ctx, nil, part)
		walls[part] = append(walls[part], time.Since(t0))
		all = append(all, walls[part][len(walls[part])-1])
		opMedians[part] = append(opMedians[part], quantile(sorted(millis(ops)), 0.5))
		lat = append(lat, ops...)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b.finish(ctx)

	rec := &record{Schema: schema, Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Passes: len(all), Metrics: map[string]reading{}}
	var untraced []time.Duration
	for _, ws := range walls {
		rec.PassWalls = append(rec.PassWalls, seconds(ws))
		untraced = append(untraced, ws...)
	}
	g.mu.Lock()
	rec.Attempted, rec.Failed, rec.Failures = g.attempted, g.failed, g.failures
	g.mu.Unlock()
	rec.Correct = g.correct()

	endToEndMetrics(rec, b, setups, walls, opMedians, lat)
	if tr != nil {
		perLayerMetrics(rec, b, tr, rt, untraced, tracedWalls)
	}
	return rec, tr, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return time.Duration(quantile(sorted(seconds(ds)), 0.5) * float64(time.Second))
}

// endToEndMetrics derives the untraced readings from the set-up times,
// each part's pass walls and median op latencies, and every op latency.
// A whole pass takes the sum of its parts' median walls. The median op
// is taken per pass, then over passes, and parts average it: where a
// pass is a fixed batch of unequal ops, a median over the whole run
// falls between the samples of two ops and follows their extremes.
func endToEndMetrics(rec *record, b bench, setups []time.Duration, walls [][]time.Duration, opMedians [][]float64, lat []time.Duration) {
	put := func(name string, value float64, s *summary) {
		def, _ := lookupMetric(name)
		rec.Metrics[name] = reading{Value: value, Unit: def.Unit, Samples: s}
	}
	s := summarize(seconds(setups))
	put("setup_s", s.Median, &s)
	var passes [][]float64
	var total time.Duration
	for _, ws := range walls {
		passes = append(passes, seconds(ws))
		for _, w := range ws {
			total += w
		}
	}
	p := partSummary(passes, false)
	put("pass_s", p.Median, &p)
	l := partSummary(opMedians, true)
	put("op_p50_ms", l.Median, &l)
	ms := sorted(millis(lat))
	pct := highestPercentile(b.opsPerPass() * minPasses)
	tail := quantile(ms, pct/100)
	beyond := 0
	for _, v := range ms {
		if v > tail {
			beyond++
		}
	}
	rec.Metrics["op_tail_ms"] = reading{Value: tail, Unit: "ms", Percentile: pct, Beyond: beyond}
	put("rss_peak_mb", peakRSSMB(), nil)

	if rec.Attempted > 0 {
		put("fail_frac", float64(rec.Failed)/float64(rec.Attempted), nil)
	}
	if total > 0 {
		put("ops_per_s", float64(len(lat))/total.Seconds(), nil)
	}
	info := map[string]float64{}
	b.info(info)
	for k, v := range info {
		put(k, v, nil)
	}
}

func perLayerMetrics(rec *record, b bench, tr *tracer, rt runtimeDelta, walls, tracedWalls []time.Duration) {
	m := map[string]float64{}
	rec.Layers = tr.layers()
	for _, s := range spanNames {
		m[s+".self_frac"] = rec.Layers[s].SelfFrac
	}
	if tr.allocs {
		m["tmsim.allocs_per_run"] = rec.Layers["tmsim.run"].AllocsPerCall
		m["tmsim.bytes_per_run"] = rec.Layers["tmsim.run"].BytesPerCall
		m["sched.allocs_per_op"] = rec.Layers["sched.schedule"].AllocsPerCall
		m["binverify.allocs_per_op"] = rec.Layers["binverify.verify"].AllocsPerCall
	}
	_, ops, _ := tr.snapshot()
	m["go.gc.count"] = float64(rt.gcs)
	m["go.gc.pause_ms"] = float64(rt.pause) / 1e6
	m["go.heap_peak_mb"] = float64(rt.heapPeak) / (1 << 20)
	if ops > 0 {
		m["go.allocs_per_op"] = float64(rt.mallocs) / float64(ops)
	}
	if u, t := median(walls), median(tracedWalls); u > 0 {
		m["trace.overhead_frac"] = float64(t)/float64(u) - 1
	}
	b.layerMetrics(m)
	for _, def := range perLayer {
		rec.Metrics[def.Name] = reading{Value: m[def.Name], Unit: def.Unit}
	}
}

// runtimeDelta accumulates Go runtime activity over the traced passes.
type runtimeDelta struct {
	gcs      uint32
	pause    uint64 // ns
	mallocs  uint64
	heapPeak uint64
}

func readRuntime() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *runtimeDelta) add(before, after runtime.MemStats) {
	d.gcs += after.NumGC - before.NumGC
	d.pause += after.PauseTotalNs - before.PauseTotalNs
	d.mallocs += after.Mallocs - before.Mallocs
	d.heapPeak = max(d.heapPeak, after.HeapSys-after.HeapReleased)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func workloadNames() string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// summaryLine is the summary the last line of standard output carries:
// the end-to-end metrics, or the per-layer ones on a traced run.
func summaryLine(rec *record) ([]byte, error) {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: rec.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
}

// report prints every metric by name with its unit, then the summary
// line.
func report(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "workload %s, seed %d, %d passes, %d ops attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Passes, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := rec.Metrics[n]
		line := fmt.Sprintf("%-36s %14.6g %s", n, r.Value, r.Unit)
		switch {
		case r.Samples != nil:
			line += fmt.Sprintf("  (median of %d; q1 %.6g, q3 %.6g)", r.Samples.N, r.Samples.Q1, r.Samples.Q3)
		case r.Percentile > 0:
			line += fmt.Sprintf("  (p%g; %d samples beyond)", r.Percentile, r.Beyond)
		}
		fmt.Fprintln(w, line)
	}
	line, err := summaryLine(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tm3270perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measuring window; passes start while they fit (at least 2 run)")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer ledger instead of the end-to-end metrics")
	jsonOut := fs.String("json", "", "append the run's full record as one JSON line to this file")
	fs.StringVar(&o.spansOut, "spans", "", "write the traced passes' spans as Chrome trace-event JSON (implies -trace 1)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookupWorkload(o.workload); !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds < 0 {
		fmt.Fprintf(stderr, "tm3270perf: bad arguments; -workload is one of %s\n", workloadNames())
		return 2
	}
	o.traced = *trace == 1 || o.spansOut != ""

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "tm3270perf:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "tm3270perf:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	rec, tr, err := measure(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "tm3270perf:", err)
		return 1
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintln(stderr, "tm3270perf:", err)
			return 1
		}
	}
	if o.spansOut != "" {
		if err := writeFile(o.spansOut, tr.writeSpans); err != nil {
			fmt.Fprintln(stderr, "tm3270perf:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, "tm3270perf:", err)
			return 1
		}
	}
	if err := report(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "tm3270perf:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}
