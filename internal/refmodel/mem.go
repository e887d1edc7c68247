package refmodel

import "sort"

// pageShift selects 4 KB pages for the sparse image, matching the
// functional memory the pipeline model executes against so that final
// images can be diffed page by page.
const pageShift = 12

// pageSize is the page granularity of the sparse image.
const pageSize = 1 << pageShift

// page is one 4 KB page with a per-byte write-validity bitmap. The
// TM3270's allocate-on-write-miss data cache tracks validity per byte
// (Section 2.3); the reference model keeps the same granularity so that
// strict mode can flag reads of individual never-written bytes — the
// same per-byte semantics the pipeline model's strict mode now tracks
// in mem.Func, which the strict co-simulation test asserts.
type page struct {
	data  [pageSize]byte
	valid [pageSize / 8]byte
}

// Mem is the reference model's memory image: a sparse big-endian image
// over the full 32-bit address space supporting non-aligned accesses,
// with per-byte write validity. The zero address space reads as zero.
type Mem struct {
	pages map[uint32]*page
}

// NewMem returns an empty image.
func NewMem() *Mem { return &Mem{pages: make(map[uint32]*page)} }

func (m *Mem) page(addr uint32, create bool) *page {
	idx := addr >> pageShift
	p := m.pages[idx]
	if p == nil && create {
		p = new(page)
		m.pages[idx] = p
	}
	return p
}

// ByteAt returns the byte at addr (zero when never written).
func (m *Mem) ByteAt(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p.data[addr&(pageSize-1)]
	}
	return 0
}

// SetByte writes the byte at addr and marks it valid.
func (m *Mem) SetByte(addr uint32, v byte) {
	p := m.page(addr, true)
	off := addr & (pageSize - 1)
	p.data[off] = v
	p.valid[off/8] |= 1 << (off % 8)
}

// Defined reports whether every byte of [addr, addr+n) has been
// written at least once.
func (m *Mem) Defined(addr uint32, n int) bool {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		a := addr + uint32(i)
		p := m.page(a, false)
		if p == nil {
			return false
		}
		off := a & (pageSize - 1)
		if p.valid[off/8]&(1<<(off%8)) == 0 {
			return false
		}
	}
	return true
}

// Load returns n bytes (1..8) starting at addr, big-endian, in the
// low-order bits of the result.
func (m *Mem) Load(addr uint32, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(m.ByteAt(addr+uint32(i)))
	}
	return v
}

// Store writes the n (1..8) low-order bytes of v, big-endian,
// starting at addr.
func (m *Mem) Store(addr uint32, n int, v uint64) {
	for i := n - 1; i >= 0; i-- {
		m.SetByte(addr+uint32(i), byte(v))
		v >>= 8
	}
}

// WriteBytes copies b into the image starting at addr.
func (m *Mem) WriteBytes(addr uint32, b []byte) {
	for i, x := range b {
		m.SetByte(addr+uint32(i), x)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Mem) ReadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.ByteAt(addr + uint32(i))
	}
	return b
}

// PageBytes returns the data of the page holding addr, or nil if that
// page was never written (image diffing). The slice aliases the image:
// callers must not modify it.
func (m *Mem) PageBytes(addr uint32) []byte {
	if p := m.page(addr, false); p != nil {
		return p.data[:]
	}
	return nil
}

// PageAddrs returns the base addresses of all populated pages in
// ascending order (image diffing).
func (m *Mem) PageAddrs() []uint32 {
	out := make([]uint32, 0, len(m.pages))
	for idx := range m.pages {
		out = append(out, idx<<pageShift)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
