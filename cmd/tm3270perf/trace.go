package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"time"

	"tm3270/internal/telemetry"
)

// tracer records spans around the benchmark's calls into the program.
// Spans stay in memory: each finished operation folds into a per-span
// ledger of calls, self time and allocations, and — when a trace file
// was asked for — into a telemetry span window written at exit.
//
// A nil *tracer is the untraced mode: operations still time themselves
// and their calls (the end-to-end metrics need op and execute times) but
// record nothing.
type tracer struct {
	// allocs measures heap allocations per span. The runtime counts
	// allocations per process, so this is only meaningful while one
	// goroutine does the work (suite-full, lint-all).
	allocs bool
	track  string
	keep   *telemetry.Spans

	mu     sync.Mutex
	nextOp int64
	ledger map[string]*spanStat
	ops    int64
	opTime time.Duration
}

// spanStat is one span name's ledger row.
type spanStat struct {
	Calls  int64
	Self   time.Duration
	Total  time.Duration
	Allocs uint64
	Bytes  uint64
}

// newTracer returns a recorder; keepSpans retains every span tree for
// the Chrome trace-event export.
func newTracer(track string, allocs, keepSpans bool) *tracer {
	t := &tracer{track: track, allocs: allocs, ledger: make(map[string]*spanStat)}
	if keepSpans {
		t.keep = telemetry.NewSpans(0)
	}
	return t
}

// span is one recorded interval of an operation.
type span struct {
	name          string
	parent        int // index into op.spans; -1 for the root
	start, end    time.Time
	child         time.Duration // time covered by direct children
	allocs, bytes uint64        // inclusive of children
}

// op is one operation's span tree under construction. It belongs to one
// goroutine; calls nest through the stack.
type op struct {
	t       *tracer
	start   time.Time // untraced ops only
	id      int64
	spans   []span
	stack   []int
	samples []metrics.Sample // reused, so reading the counters allocates nothing
}

// begin opens an operation's root span (bench.op). Under a nil tracer
// the op only times itself and its calls.
func (t *tracer) begin() *op {
	if t == nil {
		return &op{start: time.Now()}
	}
	t.mu.Lock()
	t.nextOp++
	id := t.nextOp
	t.mu.Unlock()
	o := &op{t: t, id: id, spans: make([]span, 0, 16), stack: make([]int, 0, 4)}
	if t.allocs {
		o.samples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	}
	o.push("bench.op")
	return o
}

func (o *op) push(name string) {
	s := span{name: name, parent: -1}
	if n := len(o.stack); n > 0 {
		s.parent = o.stack[n-1]
	}
	if o.samples != nil {
		s.allocs, s.bytes = o.heapAllocs()
	}
	s.start = time.Now()
	o.spans = append(o.spans, s)
	o.stack = append(o.stack, len(o.spans)-1)
}

func (o *op) pop() time.Duration {
	end := time.Now()
	i := o.stack[len(o.stack)-1]
	o.stack = o.stack[:len(o.stack)-1]
	s := &o.spans[i]
	s.end = end
	if o.samples != nil {
		a, b := o.heapAllocs()
		s.allocs, s.bytes = a-s.allocs, b-s.bytes
	}
	d := end.Sub(s.start)
	if s.parent >= 0 {
		o.spans[s.parent].child += d
	}
	return d
}

// traced reports whether the op records spans.
func (o *op) traced() bool { return o.t != nil }

// do runs f inside a span named <module>.<call> and returns its wall
// time. An untraced op only times f.
func (o *op) do(name string, f func()) time.Duration {
	if o.t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	o.push(name)
	f()
	return o.pop()
}

// end closes the root span, folds the tree into the ledger and returns
// the operation's wall time.
func (o *op) end() time.Duration {
	if o.t == nil {
		return time.Since(o.start)
	}
	d := o.pop()
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.opTime += d
	for i := range o.spans {
		s := &o.spans[i]
		st := t.ledger[s.name]
		if st == nil {
			st = &spanStat{}
			t.ledger[s.name] = st
		}
		dur := s.end.Sub(s.start)
		st.Calls++
		st.Total += dur
		st.Self += selfTime(dur, s.child)
		st.Allocs += s.allocs
		st.Bytes += s.bytes
	}
	if t.keep != nil {
		t.keep.Record(o.tree())
	}
	return d
}

// selfTime is a span's duration minus the part its children cover.
// Children run sequentially inside their parent, so their coverage is
// their summed duration, never more than the parent's own.
func selfTime(dur, child time.Duration) time.Duration {
	if child > dur {
		return 0
	}
	return dur - child
}

// tree converts the finished operation into a telemetry span tree,
// annotated with the op ID and each child's parent.
func (o *op) tree() *telemetry.Span {
	nodes := make([]*telemetry.Span, len(o.spans))
	for i := range o.spans {
		s := &o.spans[i]
		if s.parent < 0 {
			nodes[i] = telemetry.NewSpanAt(s.name, s.start)
			nodes[i].SetTrack(o.t.track)
		} else {
			nodes[i] = nodes[s.parent].StartChildAt(s.name, s.start)
			nodes[i].Annotate("parent", o.spans[s.parent].name)
		}
		nodes[i].Annotate("op", o.id)
	}
	// End children before parents: a parent's end clamps open children.
	for i := len(o.spans) - 1; i >= 0; i-- {
		nodes[i].EndAt(o.spans[i].end)
	}
	return nodes[0]
}

// snapshot copies the ledger.
func (t *tracer) snapshot() (map[string]spanStat, int64, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanStat, len(t.ledger))
	for k, v := range t.ledger {
		out[k] = *v
	}
	return out, t.ops, t.opTime
}

// writeSpans exports the recorded span trees as Chrome trace-event JSON.
func (t *tracer) writeSpans(w io.Writer) error {
	if t == nil || t.keep == nil {
		return fmt.Errorf("no spans recorded")
	}
	return t.keep.WriteTrace(w)
}

// layerRow is one span name's entry in the results' layers block.
type layerRow struct {
	Calls         int64   `json:"calls"`
	SelfMS        float64 `json:"self_ms"`
	TotalMS       float64 `json:"total_ms"`
	SelfFrac      float64 `json:"self_frac"`
	USPerCall     float64 `json:"us_per_call"`
	AllocsPerCall float64 `json:"allocs_per_call,omitempty"`
	BytesPerCall  float64 `json:"bytes_per_call,omitempty"`
}

// layers renders the ledger: absolute self times and each span's share
// of the summed operation time.
func (t *tracer) layers() map[string]layerRow {
	ledger, _, opTime := t.snapshot()
	out := make(map[string]layerRow, len(ledger))
	for n, st := range ledger {
		row := layerRow{
			Calls:   st.Calls,
			SelfMS:  float64(st.Self) / 1e6,
			TotalMS: float64(st.Total) / 1e6,
		}
		if opTime > 0 {
			row.SelfFrac = float64(st.Self) / float64(opTime)
		}
		if st.Calls > 0 {
			row.USPerCall = float64(st.Total) / 1e3 / float64(st.Calls)
			row.AllocsPerCall = float64(st.Allocs) / float64(st.Calls)
			row.BytesPerCall = float64(st.Bytes) / float64(st.Calls)
		}
		out[n] = row
	}
	return out
}

// heapAllocs reads the process's cumulative heap allocation counters.
func (o *op) heapAllocs() (objects, bytes uint64) {
	metrics.Read(o.samples)
	return o.samples[0].Value.Uint64(), o.samples[1].Value.Uint64()
}
