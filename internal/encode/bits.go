// Package encode implements the TM3270 binary instruction format: the
// template-based compressed VLIW encoding of Figure 1. Every VLIW
// instruction starts with a 10-bit template field holding five 2-bit
// compression codes that describe the operation sizes of the *next*
// instruction (so the decoder knows a compression template one cycle
// before the instruction itself arrives). Operations come in 26-, 34-
// and 42-bit encodings; "11" marks an unused slot. An empty instruction
// is 2 bytes, a maximal one 28 bytes. Jump-target instructions are not
// compressed: all five slots are present at 42 bits, so instruction
// decoding can start at any branch target without a preceding template.
package encode

import "fmt"

// bitWriter packs MSB-first bit fields into bytes.
type bitWriter struct {
	buf  []byte
	nbit int // bits written
}

// write appends the low bits bits of v (bits <= 64), most significant
// first, a byte-sized chunk at a time.
func (w *bitWriter) write(v uint64, bits int) {
	for bits > 0 {
		used := w.nbit & 7
		if used == 0 {
			w.buf = append(w.buf, 0)
		}
		take := min(8-used, bits)
		chunk := byte(v>>uint(bits-take)) & byte(1<<uint(take)-1)
		w.buf[len(w.buf)-1] |= chunk << uint(8-used-take)
		w.nbit += take
		bits -= take
	}
}

// padToByte fills the current byte with zero bits.
func (w *bitWriter) padToByte() { w.nbit = (w.nbit + 7) &^ 7 }

// bitReader reads MSB-first bit fields.
type bitReader struct {
	buf []byte
	pos int // bit position
}

// read extracts the next bits-wide field (bits <= 64), a byte-sized
// chunk at a time. A field running past the end of the stream fails
// with the position moved to the end, as a bit-serial reader would.
func (r *bitReader) read(bits int) (uint64, error) {
	end := r.pos + bits
	if limit := len(r.buf) * 8; bits > 0 && end > limit {
		r.pos = max(r.pos, limit)
		return 0, fmt.Errorf("encode: bitstream exhausted at bit %d", r.pos)
	}
	var v uint64
	for r.pos < end {
		used := r.pos & 7
		take := min(8-used, end-r.pos)
		chunk := r.buf[r.pos>>3] >> uint(8-used-take) & byte(1<<uint(take)-1)
		v = v<<uint(take) | uint64(chunk)
		r.pos += take
	}
	return v, nil
}

func (r *bitReader) seekByte(byteOff int) { r.pos = byteOff * 8 }
