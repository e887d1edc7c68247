package binverify

import (
	"slices"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
)

// stateOf builds a range state holding the given intervals.
func stateOf(ivs map[isa.Reg]interval) *rangeState {
	st := &rangeState{}
	for r, iv := range ivs {
		st.set(r, iv)
	}
	return st
}

// TestMergeRangesChangeLog pins what a join logs: the prior interval of
// every register it drops or widens, and nothing when the joined state
// already covers the incoming one.
func TestMergeRangesChangeLog(t *testing.T) {
	cases := []struct {
		name           string
		dst, src, want map[isa.Reg]interval
		log            []regChange
	}{
		{"drop",
			map[isa.Reg]interval{r2: {0, 0}, r3: {4, 4}},
			map[isa.Reg]interval{r2: {0, 0}},
			map[isa.Reg]interval{r2: {0, 0}},
			[]regChange{{r3, interval{4, 4}}}},
		{"widen",
			map[isa.Reg]interval{r2: {0, 0}, r3: {4, 4}},
			map[isa.Reg]interval{r2: {1, 1}, r3: {4, 4}},
			map[isa.Reg]interval{r2: {0, 1}, r3: {4, 4}},
			[]regChange{{r2, interval{0, 0}}}},
		{"unchanged",
			map[isa.Reg]interval{r2: {0, 3}},
			map[isa.Reg]interval{r2: {1, 2}, r3: {5, 5}},
			map[isa.Reg]interval{r2: {0, 3}},
			nil},
	}
	for _, c := range cases {
		dst := stateOf(c.dst)
		// A stale prefix must not leak into the result: callers reuse
		// the log's backing array across merges.
		stale := []regChange{{r15, interval{9, 9}}}
		log := mergeRanges(dst, stateOf(c.src), stale[:0])
		if !slices.Equal(log, c.log) {
			t.Errorf("%s: log = %v, want %v", c.name, log, c.log)
		}
		if *dst != *stateOf(c.want) {
			t.Errorf("%s: merged state differs from %v", c.name, c.want)
		}
	}
}

// TestWidenReadsChangeFromLog checks widen's verdict against the state
// before the merge: a clamp that restores the exact prior interval is no
// change, a clamp elsewhere or a drop to top is one.
func TestWidenReadsChangeFromLog(t *testing.T) {
	pre := map[isa.Reg]interval{r2: {0, 16}, r3: {7, 7}}
	backEdge := map[isa.Reg]interval{r2: {1, 17}, r3: {7, 7}}
	cases := []struct {
		name    string
		clamp   map[isa.Reg]interval
		want    map[isa.Reg]interval
		changed bool
	}{
		{"clamp restores prior", map[isa.Reg]interval{r2: {0, 16}}, pre, false},
		{"clamp moves", map[isa.Reg]interval{r2: {0, 20}}, map[isa.Reg]interval{r2: {0, 20}, r3: {7, 7}}, true},
		{"no clamp", nil, map[isa.Reg]interval{r3: {7, 7}}, true},
	}
	for _, c := range cases {
		cur := stateOf(pre)
		log := mergeRanges(cur, stateOf(backEdge), nil)
		var clamp *rangeState
		if c.clamp != nil {
			clamp = stateOf(c.clamp)
		}
		if got := widen(cur, log, clamp); got != c.changed {
			t.Errorf("%s: changed = %v, want %v", c.name, got, c.changed)
		}
		if *cur != *stateOf(c.want) {
			t.Errorf("%s: widened state differs from %v", c.name, c.want)
		}
	}

	// A register the merge dropped is a change even when every widened
	// one is clamped back.
	cur := stateOf(pre)
	log := mergeRanges(cur, stateOf(map[isa.Reg]interval{r2: {1, 17}}), nil)
	if !widen(cur, log, stateOf(map[isa.Reg]interval{r2: {0, 16}})) {
		t.Error("dropping r3 reported no change")
	}
}

// TestClampedHeaderIsNotRequeued runs the counted loop r2 = 0, 1, ...
// while r2 < 16 (header at node 0, back edge from node 5). The loop is
// one six-node chain, so each trip costs six instruction visits; the
// header widens on its third join, so both range passes converge after
// four trips, 24 visits. Once the second pass has clamped r2 to its
// window, the back edge brings one step more, which the clamp cuts back
// to the exact prior interval: re-queueing the header then would cost a
// fifth trip and trip the cap.
func TestClampedHeaderIsNotRequeued(t *testing.T) {
	tgt := config.TM3260()
	dec := stream(
		[5]*encode.DecOp{{Opcode: uint16(isa.OpIADDI), Guard: isa.R1, S1: r2, D: r2, Imm: 1}},
		[5]*encode.DecOp{{Opcode: uint16(isa.OpILESI), Guard: isa.R1, S1: r2, D: r4, Imm: 16}},
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(0))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
	opts := &Options{EntryValues: map[isa.Reg]uint32{r2: 0}, EntryDefined: []isa.Reg{r2}}
	for _, c := range []struct {
		limit  int
		capped bool
	}{{23, true}, {24, false}} {
		v := newVerifier(dec, &tgt, opts)
		v.rangeCap = c.limit
		v.run()
		if v.rangesCapped != c.capped {
			t.Errorf("cap %d: capped = %v, want %v", c.limit, v.rangesCapped, c.capped)
		}
		if !c.capped {
			if len(v.loops) != 1 || v.loops[0].bound == 0 {
				t.Fatalf("loop bound not inferred: %+v", v.loops)
			}
			if iv, ok := v.ranges[0].get(r2); !ok || iv != (interval{0, 17}) {
				t.Errorf("header r2 = %v (known %v), want the clamp window [0,17]", iv, ok)
			}
		}
	}
}
