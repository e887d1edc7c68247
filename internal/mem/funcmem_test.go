package mem_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tm3270/internal/mem"
	"tm3270/internal/refmodel"
)

// byteModel is the trivial reference for the directory: one map entry
// per written byte. A byte is defined exactly when it has an entry.
type byteModel map[uint32]byte

func (b byteModel) load(addr uint32, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b[addr+uint32(i)])
	}
	return v
}

func (b byteModel) defined(addr uint32, n int) bool {
	for i := 0; i < n; i++ {
		if _, ok := b[addr+uint32(i)]; !ok {
			return false
		}
	}
	return true
}

// hotBases are where the property test's accesses cluster, so that
// random sequences collide, cross pages and 4 MB directory spans, and
// wrap the top of the address space.
var hotBases = []uint32{0, 0x1000 - 4, 0x3ff000 - 4, 0x400000 - 4, 0x8000_0000 - 4, 0xffff_f000 - 4, 0xffff_fffc}

// TestFuncMatchesByteModel runs random Store/Load/SetByte/Defined/
// ReadRange sequences against the byte-map model.
func TestFuncMatchesByteModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, model := mem.NewFunc(), byteModel{}
		for step := 0; step < 200; step++ {
			addr := hotBases[rng.Intn(len(hotBases))] + uint32(rng.Intn(24))
			n := rng.Intn(8) + 1
			switch rng.Intn(5) {
			case 0:
				v := rng.Uint64()
				m.Store(addr, n, v)
				for i := n - 1; i >= 0; i-- {
					model[addr+uint32(i)] = byte(v)
					v >>= 8
				}
			case 1:
				v := byte(rng.Intn(256))
				m.SetByte(addr, v)
				model[addr] = v
			case 2:
				if got, want := m.Load(addr, n), model.load(addr, n); got != want {
					t.Logf("seed %d step %d: Load(%#x, %d) = %#x, want %#x", seed, step, addr, n, got, want)
					return false
				}
			case 3:
				if got, want := m.Defined(addr, n), model.defined(addr, n); got != want {
					t.Logf("seed %d step %d: Defined(%#x, %d) = %v, want %v", seed, step, addr, n, got, want)
					return false
				}
			case 4:
				dst := make([]byte, rng.Intn(40))
				m.ReadRange(addr, dst)
				for i, got := range dst {
					if want := model[addr+uint32(i)]; got != want {
						t.Logf("seed %d step %d: ReadRange(%#x)[%d] = %#x, want %#x", seed, step, addr, i, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFuncEdgeAddresses: page 0 and the top page are ordinary pages,
// and an 8-byte access at 0xfffffffc wraps to address 0.
func TestFuncEdgeAddresses(t *testing.T) {
	m := mem.NewFunc()
	m.Store(0, 4, 0x01020304)
	m.Store(0xffff_f000, 4, 0x05060708)
	if m.Load(0, 4) != 0x01020304 || m.Load(0xffff_f000, 4) != 0x05060708 {
		t.Error("page 0 and the top page must round-trip")
	}
	m.Store(0xffff_fffc, 8, 0x1122334455667788)
	if got := m.Load(0xffff_fffc, 8); got != 0x1122334455667788 {
		t.Errorf("wrapping 8-byte load = %#x", got)
	}
	if m.ByteAt(0xffff_ffff) != 0x44 || m.ByteAt(0) != 0x55 || m.ByteAt(3) != 0x88 {
		t.Error("a wrapping store must write the top four bytes, then bytes 0-3")
	}
	if !m.Defined(0xffff_fffc, 8) || m.Defined(0xffff_fffc, 9) {
		t.Error("a wrapping store defines exactly its eight bytes")
	}
	if got := m.PageAddrs(); len(got) != 2 || got[0] != 0 || got[1] != 0xffff_f000 {
		t.Errorf("PageAddrs = %#x, want [0 0xfffff000]", got)
	}
}

// TestFuncZeroValue: an undeclared Func is an empty image that accepts
// writes.
func TestFuncZeroValue(t *testing.T) {
	var m mem.Func
	if m.ByteAt(0x1234) != 0 || m.Load(0x8000_0000, 8) != 0 || m.Defined(0, 1) || len(m.PageAddrs()) != 0 {
		t.Error("the zero value must read as an empty image")
	}
	m.Store(0x1234, 2, 0xbeef)
	if m.Load(0x1234, 2) != 0xbeef || !m.Defined(0x1234, 2) {
		t.Error("the zero value must accept writes")
	}
}

// TestFuncPageAddrsAscending: pages come back in address order however
// they were populated.
func TestFuncPageAddrsAscending(t *testing.T) {
	m := mem.NewFunc()
	rng := rand.New(rand.NewSource(1))
	want := map[uint32]bool{}
	for i := 0; i < 300; i++ {
		a := rng.Uint32()
		if i%3 == 0 {
			a &= 0x00ff_ffff // several pages per 4 MB span
		}
		m.SetByte(a, 1)
		want[a&^0xfff] = true
	}
	got := m.PageAddrs()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("PageAddrs not ascending")
	}
	if len(got) != len(want) {
		t.Fatalf("PageAddrs has %d pages, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a] {
			t.Errorf("PageAddrs lists unwritten page %#x", a)
		}
	}
}

func TestFuncReadRange(t *testing.T) {
	m := mem.NewFunc()
	m.ReadRange(0x1000, nil) // must not touch anything
	if len(m.PageAddrs()) != 0 {
		t.Error("an empty ReadRange populated a page")
	}
	m.WriteBytes(0x1ffe, []byte{1, 2, 3, 4})
	got := []byte{9, 9, 9, 9, 9, 9}
	m.ReadRange(0x1ffd, got)
	if want := []byte{0, 1, 2, 3, 4, 0}; !bytes.Equal(got, want) {
		t.Errorf("ReadRange across a page boundary = %v, want %v", got, want)
	}
	far := bytes.Repeat([]byte{7}, 3*4096)
	m.ReadRange(0x4000_0000, far)
	if !bytes.Equal(far, make([]byte, len(far))) {
		t.Error("never-written pages must read as zero")
	}
	if len(m.PageAddrs()) != 2 {
		t.Error("ReadRange must not populate pages")
	}
}

func TestFuncClone(t *testing.T) {
	m := mem.NewFunc()
	m.Store(0x2004, 4, 0xdeadbeef)
	m.Store(0x7fff_fffe, 4, 0x01020304)
	c := m.Clone()
	if c.Load(0x2004, 4) != 0xdeadbeef || c.Load(0x7fff_fffe, 4) != 0x01020304 {
		t.Error("clone lost data")
	}
	if !c.Defined(0x2004, 4) || c.Defined(0x2003, 1) || c.Defined(0x2008, 1) {
		t.Error("clone must keep per-byte validity")
	}
	c.SetByte(0x2004, 0)
	c.SetByte(0x9000, 1)
	if m.ByteAt(0x2004) != 0xde || len(m.PageAddrs()) != 3 {
		t.Error("writes to the clone reached the original")
	}
}

// TestDiffReportsLowestAddress: with differences on two pages, Diff
// reports the lower address every time, whichever implementation holds
// the pages; an ignored address is skipped.
func TestDiffReportsLowestAddress(t *testing.T) {
	fill := func(w interface{ SetByte(uint32, byte) }, lowDiff bool) {
		for _, a := range []uint32{0x9000_0010, 0x3000, 0x7000, 0x5000_0000} {
			w.SetByte(a, 0x11)
		}
		if lowDiff {
			w.SetByte(0x3009, 0xaa) // lower difference
			w.SetByte(0x7005, 0xbb) // higher difference
			w.SetByte(0x1000, 0)    // populated on one side only, but zero
		}
	}
	a := mem.NewFunc()
	fill(a, true)
	b := mem.NewFunc()
	fill(b, false)
	r := refmodel.NewMem()
	fill(r, false)
	cases := []struct {
		name   string
		x, y   mem.PageReader
		ignore func(uint32) bool
		want   uint32
	}{
		{"Func/Func", a, b, nil, 0x3009},
		{"Func/refmodel.Mem", a, r, nil, 0x3009},
		{"refmodel.Mem/Func", r, a, nil, 0x3009},
		{"ignore", a, b, func(addr uint32) bool { return addr == 0x3009 }, 0x7005},
	}
	for _, tc := range cases {
		for i := 0; i < 100; i++ {
			if got, diff := mem.Diff(tc.x, tc.y, tc.ignore); !diff || got != tc.want {
				t.Fatalf("%s call %d: Diff = %#x, %v; want %#x", tc.name, i, got, diff, tc.want)
			}
		}
	}
	if _, diff := mem.Diff(b, r, nil); diff {
		t.Error("images with equal contents must not differ")
	}
	if _, diff := mem.Diff(a, b, func(addr uint32) bool { return addr == 0x3009 || addr == 0x7005 }); diff {
		t.Error("differences that are all ignored must not count")
	}
}
