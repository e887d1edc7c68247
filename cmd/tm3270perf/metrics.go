package main

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository lists the same end-to-end and per-layer metrics; the
// test TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks simulated values: deterministic for a given workload
	// and seed, so compare demands exact equality.
	Exact bool
}

// endToEnd are the metrics an untraced run reports, on every workload.
// An "op" is one unit of the workload's work: a suite run, a lint pair,
// a campaign unit or a served request; a "pass" is the workload's fixed
// batch of ops.
//
// Every bound is 0.25: on the shared 2-vCPU host the benchmark was
// built on, host speed changes by up to 2x over seconds and minutes, and
// the spread of ten runs reached 37% on serve-mix's tail and 22-23%
// elsewhere (see README.md). Finer claims use compare with alternating
// pairs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// infoMetrics are derived end-to-end readings written to the -json
// record and the human report but not bounded: each is either defined
// on one workload only or restates a bounded metric.
var infoMetrics = []metricDef{
	{Name: "fail_frac", Unit: "frac", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim_mips", Unit: "Minstr/s", Better: "higher"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Exact: true},
}

// spanNames are the spans the benchmark records around its calls into
// the program, named <module>.<call>. bench.op is the root of every
// operation; its self time is the benchmark's own glue.
var spanNames = []string{
	"bench.op",
	"workloads.init", "workloads.check",
	"runner.load", "tmsim.run",
	"sched.schedule", "sched.verify", "regalloc.allocate",
	"encode.encode", "encode.decode",
	"binverify.verify", "binverify.wcet",
	"progen.generate", "refmodel.run", "cosim.run",
	"service.request",
}

// simCounters are the simulated counters summed over one pass. They are
// exact: a change to the simulator's speed alone must leave them
// byte-identical.
var simCounters = []string{
	"sim.cycles", "sim.instrs",
	"stall.fetch", "stall.jump", "stall.data.miss", "stall.data.inflight", "stall.data.cwb",
	"dcache.load.miss", "dcache.store.miss", "dcache.copyback", "icache.miss",
	"bus.bytes.read", "bus.bytes.written",
	"prefetch.issued", "prefetch.useful", "prefetch.late",
}

// higherIsBetterCounters are the simulated counters where more is
// better.
var higherIsBetterCounters = map[string]bool{"prefetch.issued": true, "prefetch.useful": true}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	for _, s := range spanNames {
		ms = append(ms, metricDef{Name: s + ".self_frac", Unit: "frac", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "service.stage.admit_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "service.stage.queue_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "service.stage.compile_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "service.stage.execute_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "service.stage.encode_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "service.http_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "runner.cache.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "campaign.worker_busy_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "campaign.resume_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "campaign.store_bytes_per_unit", Unit: "B", Better: "lower"},
		metricDef{Name: "sim.blockcache.translated", Unit: "count", Better: "lower", Exact: true},
		metricDef{Name: "sim.blockcache.hits", Unit: "count", Better: "higher", Exact: true},
		metricDef{Name: "blockcache.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
		metricDef{Name: "blockcache.translate_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "tmsim.mips", Unit: "Minstr/s", Better: "higher"},
	)
	for _, g := range suiteGroups {
		ms = append(ms, metricDef{Name: "tmsim.mips." + g, Unit: "Minstr/s", Better: "higher"})
	}
	ms = append(ms,
		metricDef{Name: "refmodel.mips", Unit: "Minstr/s", Better: "higher"},
		metricDef{Name: "tmsim.allocs_per_run", Unit: "count", Better: "lower"},
		metricDef{Name: "tmsim.bytes_per_run", Unit: "B", Better: "lower"},
		metricDef{Name: "sched.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "binverify.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "go.gc.count", Unit: "count", Better: "lower"},
		metricDef{Name: "go.gc.pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	)
	for _, c := range simCounters {
		better := "lower"
		if higherIsBetterCounters[c] {
			better = "higher"
		}
		ms = append(ms, metricDef{Name: c, Unit: "count", Better: better, Exact: true})
	}
	return ms
}

// lookupMetric finds a metric definition by name across every table.
func lookupMetric(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, infoMetrics, perLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
