// Package mem provides the memory-system substrates: the functional
// (value-holding) memory image and the DDR SDRAM timing model behind the
// processor's bus interface unit.
package mem

import (
	"bytes"
	"slices"
)

const (
	// pageBits selects a 4 KB page granularity for the sparse image.
	pageBits = 12
	pageSize = 1 << pageBits
	// dirBits is the address bits each directory level resolves.
	dirBits = 10
)

// LoadFault observes (and may corrupt) the value returned by every
// functional load. Fault injectors implement it; a nil Fault field is
// the fault-free fast path.
type LoadFault interface {
	// TapLoad receives the loaded value and returns the value the
	// processor actually sees.
	TapLoad(addr uint32, n int, v uint64) uint64
}

// page is one 4 KB page with a per-byte write-validity bitmap. The
// TM3270's allocate-on-write-miss data cache tracks validity per byte
// (Section 2.3); the functional image keeps the same granularity so
// strict mode can flag reads of individual never-written bytes — the
// same semantics as the reference model's memory, which the strict
// co-simulation test holds the two models to.
type page struct {
	data  [pageSize]byte
	valid [pageSize / 8]byte
}

// pageTable is a second-level directory: the pages of one 4 MB span.
type pageTable [1 << dirBits]*page

// Func is a sparse functional memory image over the full 32-bit address
// space. All multi-byte accesses are big-endian and may be non-aligned,
// matching the ISA's memory semantics.
//
// Pages live in a two-level directory: a 1,024-entry top level held
// inline, and a 1,024-entry page table allocated on the first write to
// its 4 MB span, so every lookup costs two indexed loads. The zero value
// is an empty image that reads as zero everywhere and accepts writes. A
// Func holds its 8 KB top level by value and must not be copied; use
// Clone for a deep copy.
//
// A Func is private to one machine (like its register file) and not
// safe for concurrent use.
type Func struct {
	dir [1 << dirBits]*pageTable

	// Fault, when non-nil, taps every Load (fault injection).
	Fault LoadFault
}

// NewFunc returns an empty memory image.
func NewFunc() *Func { return new(Func) }

// page returns the page holding addr, or nil if it was never written.
func (m *Func) page(addr uint32) *page {
	if t := m.dir[addr>>(pageBits+dirBits)]; t != nil {
		return t[addr>>pageBits&(1<<dirBits-1)]
	}
	return nil
}

// writePage returns the page holding addr, allocating it (and its page
// table) on first use.
func (m *Func) writePage(addr uint32) *page {
	t := &m.dir[addr>>(pageBits+dirBits)]
	if *t == nil {
		*t = new(pageTable)
	}
	p := &(*t)[addr>>pageBits&(1<<dirBits-1)]
	if *p == nil {
		*p = new(page)
	}
	return *p
}

// Defined reports whether every byte of [addr, addr+n) has been written
// at least once. The trap model uses it to turn reads of never-written
// bytes into diagnosable faults instead of silent zeroes, at the same
// per-byte granularity as the reference model.
func (m *Func) Defined(addr uint32, n int) bool {
	for i := 0; i < max(n, 1); i++ {
		a := addr + uint32(i)
		if p := m.page(a); p == nil || p.valid[a%pageSize/8]&(1<<(a%8)) == 0 {
			return false
		}
	}
	return true
}

// PageAddrs returns the base addresses of all populated pages in
// ascending order (the directory's own order). Fault injectors use it
// to pick corruption targets deterministically.
func (m *Func) PageAddrs() []uint32 {
	var out []uint32
	for hi, t := range &m.dir {
		if t == nil {
			continue
		}
		for lo, p := range t {
			if p != nil {
				out = append(out, uint32(hi)<<(pageBits+dirBits)|uint32(lo)<<pageBits)
			}
		}
	}
	return out
}

// PageBytes returns the data of the page holding addr, or nil if that
// page was never written. The slice aliases the image: callers must
// not modify it.
func (m *Func) PageBytes(addr uint32) []byte {
	if p := m.page(addr); p != nil {
		return p.data[:]
	}
	return nil
}

// Clone returns a deep copy of the image: every page's data and
// per-byte validity. The copy has no Fault tap.
func (m *Func) Clone() *Func {
	c := new(Func)
	for hi, t := range &m.dir {
		if t == nil {
			continue
		}
		ct := new(pageTable)
		for lo, p := range t {
			if p != nil {
				cp := *p
				ct[lo] = &cp
			}
		}
		c.dir[hi] = ct
	}
	return c
}

// ByteAt returns the byte at addr.
func (m *Func) ByteAt(addr uint32) byte {
	if p := m.page(addr); p != nil {
		return p.data[addr&(pageSize-1)]
	}
	return 0
}

// SetByte sets the byte at addr and marks it written.
func (m *Func) SetByte(addr uint32, v byte) {
	p := m.writePage(addr)
	off := addr & (pageSize - 1)
	p.data[off] = v
	p.valid[off/8] |= 1 << (off % 8)
}

// FlipBit inverts one bit of the byte at addr (fault injection).
func (m *Func) FlipBit(addr uint32, bit uint) {
	m.SetByte(addr, m.ByteAt(addr)^(1<<(bit&7)))
}

// Load implements isa.Memory: n bytes (1..8) big-endian starting at addr.
func (m *Func) Load(addr uint32, n int) uint64 {
	var v uint64
	off := addr & (pageSize - 1)
	if int(off)+n <= pageSize {
		// The access stays on one page: resolve it once.
		if p := m.page(addr); p != nil {
			for i := 0; i < n; i++ {
				v = v<<8 | uint64(p.data[off+uint32(i)])
			}
		}
	} else {
		for i := 0; i < n; i++ {
			v = v<<8 | uint64(m.ByteAt(addr+uint32(i)))
		}
	}
	if m.Fault != nil {
		v = m.Fault.TapLoad(addr, n, v)
	}
	return v
}

// Store implements isa.Memory: the n low-order bytes of v, big-endian.
func (m *Func) Store(addr uint32, n int, v uint64) {
	off := addr & (pageSize - 1)
	if int(off)+n <= pageSize {
		p := m.writePage(addr)
		for i := n - 1; i >= 0; i-- {
			o := off + uint32(i)
			p.data[o] = byte(v)
			p.valid[o/8] |= 1 << (o % 8)
			v >>= 8
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		m.SetByte(addr+uint32(i), byte(v))
		v >>= 8
	}
}

// WriteBytes copies b into memory starting at addr.
func (m *Func) WriteBytes(addr uint32, b []byte) {
	for i, x := range b {
		m.SetByte(addr+uint32(i), x)
	}
}

// ReadRange fills dst with the bytes starting at addr, a page at a
// time. Never-written pages read as zero, and a range running past the
// top of the address space wraps to address 0, as byte-wise reads do.
func (m *Func) ReadRange(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), int(pageSize-off))
		if p := m.page(addr); p != nil {
			copy(dst[:n], p.data[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Func) ReadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	m.ReadRange(addr, b)
	return b
}

// PageReader is a read-only, page-granular view of a memory image: what
// Diff needs to compare two images. Func and the reference model's
// memory both satisfy it.
type PageReader interface {
	// PageAddrs returns the base addresses of the populated 4 KB pages.
	PageAddrs() []uint32
	// PageBytes returns the 4 KB of data of the page holding addr, or
	// nil if the page was never written. The caller must not modify it.
	PageBytes(addr uint32) []byte
}

// zeroPage stands in for a page one side of a Diff never wrote.
var zeroPage [pageSize]byte

// Diff returns the lowest address at which images a and b differ, over
// the union of their populated pages; a page only one side populated
// compares against zeros. Addresses for which ignore returns true are
// not compared (nil ignores none): fault campaigns use it to exclude the
// injected corruption sites themselves when deciding whether a fault
// propagated. Pages are compared whole and searched byte by byte only
// where they differ.
func Diff(a, b PageReader, ignore func(addr uint32) bool) (uint32, bool) {
	pages := slices.Concat(a.PageAddrs(), b.PageAddrs())
	slices.Sort(pages)
	for i, base := range pages {
		if i > 0 && base == pages[i-1] {
			continue
		}
		x, y := a.PageBytes(base), b.PageBytes(base)
		if x == nil {
			x = zeroPage[:]
		}
		if y == nil {
			y = zeroPage[:]
		}
		if bytes.Equal(x, y) {
			continue
		}
		for off := range x {
			if addr := base + uint32(off); x[off] != y[off] && (ignore == nil || !ignore(addr)) {
				return addr, true
			}
		}
	}
	return 0, false
}
