// Package cache provides the set-associative cache arrays shared by the
// instruction and data caches: tag lookup, true-LRU replacement and
// optional per-byte validity (the TM3270 data cache tracks byte validity
// to support its allocate-on-write-miss policy).
package cache

import (
	"math/bits"

	"tm3270/internal/config"
)

// Line is one cache line's control state. It holds no pointers, so a
// cache's line array is a single no-scan allocation.
type Line struct {
	Tag   uint32
	Valid bool
	Dirty bool
	// validOff is 1 + the offset of the line's byte-validity words in
	// the owning Cache's validity array; 0 until the line's first Fill
	// in a cache with byte validity.
	validOff uint32
	// ReadyAt is the CPU cycle at which an in-flight fill (prefetch or
	// fetch-on-write) delivers data; accesses before it stall.
	ReadyAt int64
}

// Cache is a set-associative array with true LRU.
type Cache struct {
	cfg       config.CacheConfig
	byteValid bool
	lines     []Line  // set-major: line set*ways+way
	lru       []uint8 // lru[set*ways:(set+1)*ways] lists ways, most recent first
	// valid holds every filled line's per-byte validity bits, lineWords
	// words per line, appended on each line's first Fill so a run pays
	// only for the lines it touches.
	valid      []uint64
	lineWords  int
	offsetBits uint
	tagShift   uint
	indexMask  uint32
}

// New builds the arrays for the given geometry. byteValidity enables
// per-byte valid tracking (TM3270 data cache).
func New(cfg config.CacheConfig, byteValidity bool) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		byteValid: byteValidity,
		lines:     make([]Line, sets*cfg.Ways),
		lru:       make([]uint8, sets*cfg.Ways),
		lineWords: (cfg.LineBytes + 63) / 64,
	}
	for i := range c.lru {
		c.lru[i] = uint8(i % cfg.Ways)
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.offsetBits++
	}
	c.indexMask = uint32(sets - 1)
	c.tagShift = c.offsetBits + uint(bits.Len32(c.indexMask))
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ (uint32(c.cfg.LineBytes) - 1)
}

// Index returns the set index of addr.
func (c *Cache) Index(addr uint32) uint32 { return (addr >> c.offsetBits) & c.indexMask }

func (c *Cache) tag(addr uint32) uint32 { return addr >> c.tagShift }

// set returns the ways of set s.
func (c *Cache) set(s uint32) []Line {
	i := int(s) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// order returns set s's LRU list, most recent first.
func (c *Cache) order(s uint32) []uint8 {
	i := int(s) * c.cfg.Ways
	return c.lru[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// Lookup finds addr's line. It does not update LRU state.
func (c *Cache) Lookup(addr uint32) (*Line, bool) {
	ways := c.set(c.Index(addr))
	tag := c.tag(addr)
	for w := range ways {
		l := &ways[w]
		if l.Valid && l.Tag == tag {
			return l, true
		}
	}
	return nil, false
}

// LookupTouch finds addr's line and, on a hit, marks it most recently
// used, in one set scan, for access paths that always promote on a
// hit.
func (c *Cache) LookupTouch(addr uint32) (*Line, bool) {
	set := c.Index(addr)
	ways := c.set(set)
	tag := c.tag(addr)
	for w := range ways {
		l := &ways[w]
		if l.Valid && l.Tag == tag {
			c.promote(set, uint8(w))
			return l, true
		}
	}
	return nil, false
}

func (c *Cache) promote(set uint32, way uint8) {
	order := c.order(set)
	for i, w := range order {
		if w == way {
			copy(order[1:i+1], order[:i])
			order[0] = way
			return
		}
	}
}

// Victim selects the line to replace in addr's set: an invalid way if
// one exists, otherwise the least recently used. It returns the line
// for the caller to inspect (copyback) and then overwrite via Fill.
func (c *Cache) Victim(addr uint32) *Line {
	set := c.Index(addr)
	ways := c.set(set)
	for w := range ways {
		if !ways[w].Valid {
			return &ways[w]
		}
	}
	order := c.order(set)
	return &ways[order[len(order)-1]]
}

// VictimAddr reconstructs the line-aligned address of a valid line given
// any address mapping to the same set.
func (c *Cache) VictimAddr(l *Line, addrInSet uint32) uint32 {
	set := c.Index(addrInSet)
	return l.Tag<<c.tagShift | set<<c.offsetBits
}

// Fill installs addr's line into the given way slot and makes it MRU.
// allValid marks every byte valid (a demand fetch); otherwise the line
// starts with no valid bytes (a write-miss allocation).
func (c *Cache) Fill(l *Line, addr uint32, allValid bool) {
	set := c.Index(addr)
	way := c.wayOf(set, l)
	l.Tag = c.tag(addr)
	l.Valid = true
	l.Dirty = false
	l.ReadyAt = 0
	if c.byteValid {
		if l.validOff == 0 {
			l.validOff = uint32(len(c.valid)) + 1
			c.valid = append(c.valid, make([]uint64, c.lineWords)...)
		}
		fill := uint64(0)
		if allValid {
			fill = ^uint64(0)
		}
		words := c.validWords(l)
		for i := range words {
			words[i] = fill
		}
	}
	c.promote(set, way)
}

func (c *Cache) wayOf(set uint32, l *Line) uint8 {
	ways := c.set(set)
	for w := range ways {
		if &ways[w] == l {
			return uint8(w)
		}
	}
	return 0
}

// validWords returns l's byte-validity bits, or nil when the cache
// tracks no byte validity or l was never filled. A line without
// validity words reads as all valid; every caller asks only about
// filled lines.
func (c *Cache) validWords(l *Line) []uint64 {
	if l.validOff == 0 {
		return nil
	}
	o := int(l.validOff - 1)
	return c.valid[o : o+c.lineWords : o+c.lineWords]
}

// MarkValid marks [addr, addr+n) valid within its line (stores under
// allocate-on-write-miss).
func (c *Cache) MarkValid(l *Line, addr uint32, n int) {
	words := c.validWords(l)
	if words == nil {
		return
	}
	off := int(addr) & (c.cfg.LineBytes - 1)
	for i := 0; i < n && off+i < c.cfg.LineBytes; i++ {
		b := off + i
		words[b>>6] |= 1 << uint(b&63)
	}
}

// BytesValid reports whether all of [addr, addr+n) within the line is
// valid.
func (c *Cache) BytesValid(l *Line, addr uint32, n int) bool {
	words := c.validWords(l)
	if words == nil {
		return true
	}
	off := int(addr) & (c.cfg.LineBytes - 1)
	for i := 0; i < n && off+i < c.cfg.LineBytes; i++ {
		b := off + i
		if words[b>>6]&(1<<uint(b&63)) == 0 {
			return false
		}
	}
	return true
}

// ValidByteCount returns the number of valid bytes in the line (the
// copyback traffic of a victimized line under byte validity).
func (c *Cache) ValidByteCount(l *Line) int {
	words := c.validWords(l)
	if words == nil {
		return c.cfg.LineBytes
	}
	n := 0
	for i, w := range words {
		if rem := c.cfg.LineBytes - i*64; rem < 64 {
			w &= 1<<uint(rem) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// SetAllValid marks the whole line valid (after a demand fetch merge).
func (c *Cache) SetAllValid(l *Line) {
	words := c.validWords(l)
	for i := range words {
		words[i] = ^uint64(0)
	}
}
