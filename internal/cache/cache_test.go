package cache_test

import (
	"testing"

	"tm3270/internal/cache"
	"tm3270/internal/config"
)

func smallCache(byteValid bool) *cache.Cache {
	return cache.New(config.CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2}, byteValid)
}

func TestLookupAndFill(t *testing.T) {
	c := smallCache(false)
	if _, hit := c.Lookup(0x1000); hit {
		t.Fatal("cold cache hit")
	}
	v := c.Victim(0x1000)
	c.Fill(v, 0x1000, true)
	if l, hit := c.Lookup(0x1000); !hit || l != v {
		t.Fatal("line not found after fill")
	}
	// Same line, different offset.
	if _, hit := c.Lookup(0x103f); !hit {
		t.Error("offset within line must hit")
	}
	// Next line misses.
	if _, hit := c.Lookup(0x1040); hit {
		t.Error("adjacent line must miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache(false)
	// 8 sets of 64B lines, 2 ways. Three addresses in the same set.
	a1, a2, a3 := uint32(0x0000), uint32(0x0200), uint32(0x0400)
	for _, a := range []uint32{a1, a2} {
		v := c.Victim(a)
		c.Fill(v, a, true)
	}
	// Hit a1 so a2 becomes LRU.
	c.LookupTouch(a1)
	v := c.Victim(a3)
	if got := c.VictimAddr(v, a3); got != a2 {
		t.Errorf("victim = %#x, want LRU line %#x", got, a2)
	}
	c.Fill(v, a3, true)
	if _, hit := c.Lookup(a2); hit {
		t.Error("evicted line still present")
	}
	for _, a := range []uint32{a1, a3} {
		if _, hit := c.Lookup(a); !hit {
			t.Errorf("line %#x lost", a)
		}
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := smallCache(false)
	v := c.Victim(0)
	c.Fill(v, 0, true)
	v2 := c.Victim(0x200) // same set
	if v2.Valid {
		t.Error("victim should be the invalid way")
	}
}

func TestByteValidity(t *testing.T) {
	c := smallCache(true)
	v := c.Victim(0x40)
	c.Fill(v, 0x40, false) // write-miss allocation: nothing valid
	if c.BytesValid(v, 0x40, 4) {
		t.Error("freshly allocated line must have no valid bytes")
	}
	if got := c.ValidByteCount(v); got != 0 {
		t.Errorf("valid bytes = %d, want 0", got)
	}
	c.MarkValid(v, 0x44, 4)
	if !c.BytesValid(v, 0x44, 4) {
		t.Error("stored bytes must be valid")
	}
	if c.BytesValid(v, 0x42, 4) {
		t.Error("range straddling invalid bytes must report invalid")
	}
	if got := c.ValidByteCount(v); got != 4 {
		t.Errorf("valid bytes = %d, want 4", got)
	}
	c.SetAllValid(v)
	if got := c.ValidByteCount(v); got != 64 {
		t.Errorf("valid bytes = %d, want 64", got)
	}
	// Fill with allValid=true resets to fully valid.
	c.Fill(v, 0x40, true)
	if !c.BytesValid(v, 0x40, 64) {
		t.Error("demand fill must validate the whole line")
	}
}

func TestMarkValidClipsToLine(t *testing.T) {
	c := smallCache(true)
	v := c.Victim(0)
	c.Fill(v, 0, false)
	// Mark a range that extends past the line end: only in-line bytes
	// are tracked here (the second line is a separate access).
	c.MarkValid(v, 62, 4)
	if got := c.ValidByteCount(v); got != 2 {
		t.Errorf("valid bytes = %d, want 2", got)
	}
}

func TestLineAddrIndex(t *testing.T) {
	c := smallCache(false)
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr = %#x", got)
	}
	// 8 sets: index bits [8:6], so 0x200 wraps back to set 0.
	if c.Index(0x000) != c.Index(0x200) {
		t.Error("0x0 and 0x200 must map to the same set (index wraps at 8 sets)")
	}
	if c.Index(0x00) == c.Index(0x40) {
		t.Error("adjacent lines must map to different sets")
	}
}

var sink *cache.Cache

// TestCacheNewAllocs guards the flat layout: building configuration D's
// data cache (1,024 lines with byte validity) is the Cache, its line
// array and its LRU array, however many sets the geometry has.
func TestCacheNewAllocs(t *testing.T) {
	cfg := config.ConfigD().DCache
	allocs := testing.AllocsPerRun(20, func() { sink = cache.New(cfg, true) })
	if allocs > 3 {
		t.Errorf("cache.New(D$) = %.0f allocations, want <= 3", allocs)
	}
}

// TestByteValidityPerLine checks that lines filled in any order keep
// their own validity bits, and that a refill of a line reuses them.
func TestByteValidityPerLine(t *testing.T) {
	c := smallCache(true)
	addrs := []uint32{0x0000, 0x0200, 0x0040, 0x0080}
	lines := make([]*cache.Line, len(addrs))
	for i, a := range addrs {
		lines[i] = c.Victim(a)
		c.Fill(lines[i], a, false)
		c.MarkValid(lines[i], a+uint32(i), i+1)
	}
	for i, l := range lines {
		if got := c.ValidByteCount(l); got != i+1 {
			t.Errorf("line %#x: %d valid bytes, want %d", addrs[i], got, i+1)
		}
	}
	c.Fill(lines[0], 0x0400, true)
	if got := c.ValidByteCount(lines[0]); got != 64 {
		t.Errorf("refilled line: %d valid bytes, want 64", got)
	}
	if got := c.ValidByteCount(lines[1]); got != 2 {
		t.Errorf("neighbour after refill: %d valid bytes, want 2", got)
	}
}

// TestLookupTouchPromotes checks that a hit through LookupTouch makes
// the line most recently used and a miss promotes nothing.
func TestLookupTouchPromotes(t *testing.T) {
	c := smallCache(false)
	a1, a2, a3 := uint32(0x0000), uint32(0x0200), uint32(0x0400)
	for _, a := range []uint32{a1, a2} {
		c.Fill(c.Victim(a), a, true)
	}
	if l, hit := c.LookupTouch(a1); !hit || l.Tag != 0 {
		t.Fatal("LookupTouch missed a filled line")
	}
	if _, hit := c.LookupTouch(a3); hit {
		t.Fatal("LookupTouch hit an absent line")
	}
	if got := c.VictimAddr(c.Victim(a3), a3); got != a2 {
		t.Errorf("victim = %#x, want %#x after touching %#x", got, a2, a1)
	}
}

// TestNoByteValidity checks that a cache without byte validity reports
// every byte of a line valid, whatever was marked.
func TestNoByteValidity(t *testing.T) {
	c := smallCache(false)
	if got := c.Config().LineBytes; got != 64 {
		t.Fatalf("LineBytes = %d", got)
	}
	v := c.Victim(0x40)
	c.Fill(v, 0x40, false)
	c.MarkValid(v, 0x44, 4)
	c.SetAllValid(v)
	if !c.BytesValid(v, 0x40, 64) || c.ValidByteCount(v) != 64 {
		t.Error("a cache without byte validity must report whole lines valid")
	}
}
