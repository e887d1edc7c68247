package encode

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// serialWriter and serialReader are the bit-at-a-time reference forms
// of bitWriter and bitReader: the field-wide ones must produce and
// consume exactly the same streams.
type serialWriter struct {
	buf  []byte
	nbit int
}

func (w *serialWriter) write(v uint64, bits int) {
	for i := bits - 1; i >= 0; i-- {
		if w.nbit&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[len(w.buf)-1] |= 0x80 >> uint(w.nbit&7)
		}
		w.nbit++
	}
}

type serialReader struct {
	buf []byte
	pos int
}

func (r *serialReader) read(bits int) (uint64, error) {
	var v uint64
	for i := 0; i < bits; i++ {
		byteIdx := r.pos >> 3
		if byteIdx >= len(r.buf) {
			return 0, fmt.Errorf("encode: bitstream exhausted at bit %d", r.pos)
		}
		v = v<<1 | uint64(r.buf[byteIdx]>>(7-uint(r.pos&7))&1)
		r.pos++
	}
	return v, nil
}

func mask(bits int) uint64 {
	if bits == 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// TestBitIOMatchesSerial writes random field sequences (widths 0..64,
// values with bits above the width set) through both writers, compares
// the bytes, reads them back through both readers, and then reads one
// field past the end, where both must fail with the same error and
// stop at the same position.
func TestBitIOMatchesSerial(t *testing.T) {
	check := func(vals []uint64, widths []uint8, pad []bool, over uint8) bool {
		n := min(len(vals), len(widths))
		var w bitWriter
		var ref serialWriter
		for i := 0; i < n; i++ {
			bits := int(widths[i] % 65)
			w.write(vals[i], bits)
			ref.write(vals[i], bits)
			if i < len(pad) && pad[i] {
				w.padToByte()
				ref.nbit = (ref.nbit + 7) &^ 7
			}
		}
		if !bytes.Equal(w.buf, ref.buf) || w.nbit != ref.nbit {
			t.Logf("writers differ: %x (%d bits) vs %x (%d bits)", w.buf, w.nbit, ref.buf, ref.nbit)
			return false
		}
		r := bitReader{buf: w.buf}
		rr := serialReader{buf: ref.buf}
		for i := 0; i < n; i++ {
			bits := int(widths[i] % 65)
			got, err := r.read(bits)
			want, rerr := rr.read(bits)
			if err != nil || rerr != nil || got != want || got != vals[i]&mask(bits) {
				t.Logf("field %d (%d bits): read %#x (%v), reference %#x (%v), wrote %#x",
					i, bits, got, err, want, rerr, vals[i]&mask(bits))
				return false
			}
			if i < len(pad) && pad[i] {
				r.pos = (r.pos + 7) &^ 7
				rr.pos = (rr.pos + 7) &^ 7
			}
		}
		// Past the end: the padding slack reads, then the stream runs out.
		bits := int(over%64) + 1 + (len(w.buf)*8 - r.pos)
		bits = min(bits, 64)
		got, err := r.read(bits)
		want, rerr := rr.read(bits)
		if got != want || fmt.Sprint(err) != fmt.Sprint(rerr) || r.pos != rr.pos {
			t.Logf("overrun by %d bits: %#x %v at %d, reference %#x %v at %d",
				bits, got, err, r.pos, want, rerr, rr.pos)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBitReaderExhausted pins the exhausted-stream error: a field that
// runs past the end reports the first bit beyond the stream, and a
// read that starts beyond it (a seek past the end) reports where it
// started.
func TestBitReaderExhausted(t *testing.T) {
	r := bitReader{buf: []byte{0xab, 0xcd}}
	if v, err := r.read(10); err != nil || v != 0x2af {
		t.Fatalf("read(10) = %#x, %v", v, err)
	}
	if _, err := r.read(7); err == nil || err.Error() != "encode: bitstream exhausted at bit 16" {
		t.Fatalf("overrunning read: %v", err)
	}
	if _, err := r.read(1); err == nil || err.Error() != "encode: bitstream exhausted at bit 16" {
		t.Fatalf("read at the end: %v", err)
	}
	r.seekByte(5)
	if _, err := r.read(3); err == nil || err.Error() != "encode: bitstream exhausted at bit 40" {
		t.Fatalf("read past the end: %v", err)
	}
	if v, err := r.read(0); err != nil || v != 0 {
		t.Fatalf("zero-width read past the end = %#x, %v", v, err)
	}
}
