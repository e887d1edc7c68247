package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// readRecords loads the run records a -json file accumulated, one JSON
// object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != schema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, r.Schema, schema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is one (workload, metric) row of compare's report.
type comparison struct {
	Group   string
	Metric  metricDef
	A, B    summary
	Delta   float64 // relative change of the median, signed so that > 0 is better
	Wins    int     // pairs where the change read better
	Pairs   int
	Verdict string
}

// improvement is the relative change from a to b, positive when b is
// better in the metric's direction.
func improvement(def metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		if (b < a) == (def.Better == "lower") {
			return 1
		}
		return -1
	}
	d := (b - a) / a
	if a < 0 {
		d = -d
	}
	if def.Better == "lower" {
		d = -d
	}
	return d
}

// verdict judges the change runs b against the parent runs a; run i of
// each side forms pair i. A gain needs nine tenths of the pairs won and
// medians further apart than the parent's quartile spread. A metric
// whose parent spread exceeds its bound is unresolved unless every
// change run beats every parent run. Exact (simulated) metrics must
// match exactly.
func verdict(def metricDef, a, b []float64) comparison {
	c := comparison{Metric: def, A: summarize(a), B: summarize(b)}
	c.Delta = improvement(def, c.A.Median, c.B.Median)
	c.Pairs = min(len(a), len(b))
	losses := 0
	for i := 0; i < c.Pairs; i++ {
		switch d := improvement(def, a[i], b[i]); {
		case d > 0:
			c.Wins++
		case d < 0:
			losses++
		}
	}
	if def.Exact {
		switch {
		case c.Wins == 0 && losses == 0 && c.A.Median == c.B.Median:
			c.Verdict = verdictUnchanged
		case c.Delta > 0:
			c.Verdict = verdictBetter
		default:
			c.Verdict = verdictWorse
		}
		return c
	}
	gap := abs(c.B.Median - c.A.Median)
	iqr := abs(c.A.Q3 - c.A.Q1)
	switch {
	case c.Pairs > 0 && c.Wins*10 >= 9*c.Pairs && c.Delta > 0 && gap > iqr:
		c.Verdict = verdictBetter
	case def.Bound == 0:
		if c.Pairs > 0 && losses*10 >= 9*c.Pairs && c.Delta < 0 && gap > iqr {
			c.Verdict = verdictWorse
		} else {
			c.Verdict = verdictUnresolved
		}
	case c.A.spread() > def.Bound && !allBetter(def, a, b):
		c.Verdict = verdictUnresolved
	case -c.Delta > def.Bound:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if improvement(def, x, y) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareRecords pairs the two sides' runs per workload (untraced and
// traced runs apart) and judges every metric both sides report.
func compareRecords(a, b []record) []comparison {
	type key struct {
		workload string
		traced   bool
	}
	group := func(rs []record) map[key][]record {
		m := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Traced}
			m[k] = append(m[k], r)
		}
		return m
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].traced && keys[j].traced
	})
	var out []comparison
	for _, k := range keys {
		name := k.workload
		if k.traced {
			name += " (traced)"
		}
		ra, rb := ga[k], gb[k]
		for _, def := range allMetrics() {
			va, vb := values(ra, def.Name), values(rb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := verdict(def, va, vb)
			c.Group = name
			out = append(out, c)
		}
	}
	return out
}

func allMetrics() []metricDef {
	out := append(append([]metricDef(nil), endToEnd...), infoMetrics...)
	return append(out, perLayer...)
}

// values collects one metric across runs, in run order; a run that does
// not report the metric is skipped.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: tm3270perf compare parent.jsonl change.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "tm3270perf compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "tm3270perf compare:", err)
		return 2
	}
	rows := compareRecords(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "tm3270perf compare: the two files share no workload")
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-26s %-34s %-9s %-36s %-36s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3] n", "change median [q1, q3] n", "delta", "wins", "verdict")
	for _, c := range rows {
		bound := ""
		if c.Metric.Bound > 0 {
			bound = fmt.Sprintf(" (bound %.0f%%)", 100*c.Metric.Bound)
		}
		fmt.Fprintf(stdout, "%-26s %-34s %-9s %-36s %-36s %+7.2f%% %3d/%-2d  %s%s\n",
			c.Group, c.Metric.Name, c.Metric.Unit, fmtSummary(c.A), fmtSummary(c.B),
			100*c.Delta, c.Wins, c.Pairs, c.Verdict, bound)
		worse = worse || c.Verdict == verdictWorse
		if c.Pairs < 10 && c.Metric.Bound > 0 && !c.Metric.Exact && c.Verdict == verdictBetter {
			fmt.Fprintf(stdout, "%-26s   note: fewer than 10 pairs; a gain needs at least 10\n", "")
		}
	}
	if worse {
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
}
