// Package video provides the video-processing substrate shared by the
// workloads: frame layout over the simulated memory, deterministic
// synthetic image/field generators, checksums, and motion-vector field
// generators with controlled "disruptiveness" (the property the paper
// uses to distinguish the mpeg2_a/b/c streams).
package video

import "tm3270/internal/mem"

// Frame is a byte-per-pixel (luma) image in simulated memory.
type Frame struct {
	W, H   int
	Stride int
	Base   uint32
}

// NewFrame lays out a W×H frame at base with a packed stride.
func NewFrame(base uint32, w, h int) Frame {
	return Frame{W: w, H: h, Stride: w, Base: base}
}

// Addr returns the address of pixel (x, y). Coordinates are clamped to
// the frame, matching the edge-extension rule of motion compensation.
func (f Frame) Addr(x, y int) uint32 {
	x = clamp(x, 0, f.W-1)
	y = clamp(y, 0, f.H-1)
	return f.Base + uint32(y*f.Stride+x)
}

// Bytes returns the total footprint.
func (f Frame) Bytes() int { return f.Stride * f.H }

// End returns one past the last byte.
func (f Frame) End() uint32 { return f.Base + uint32(f.Bytes()) }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LCG is the deterministic pseudo-random generator used by all
// synthetic content so runs are reproducible across configurations.
type LCG struct{ s uint32 }

// NewLCG seeds the generator (zero is remapped).
func NewLCG(seed uint32) *LCG {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &LCG{s: seed}
}

// Next returns the next 32-bit value.
func (l *LCG) Next() uint32 {
	l.s = l.s*1664525 + 1013904223
	return l.s
}

// Intn returns a value in [0, n).
func (l *LCG) Intn(n int) int { return int(l.Next() % uint32(n)) }

// FillTestPattern writes a natural-image-like pattern: a smooth
// gradient with texture noise, so SAD searches and filters behave
// non-degenerately.
func FillTestPattern(m *mem.Func, f Frame, seed uint32) {
	rng := NewLCG(seed)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			v := (x*3 + y*7) & 0xff
			v = (v + rng.Intn(32)) & 0xff
			m.SetByte(f.Addr(x, y), byte(v))
		}
	}
}

// Checksum folds a frame into a 32-bit FNV-style digest.
func Checksum(m *mem.Func, f Frame) uint32 {
	h := uint32(2166136261)
	row := make([]byte, f.W)
	for y := 0; y < f.H; y++ {
		m.ReadRange(f.Base+uint32(y*f.Stride), row)
		for _, px := range row {
			h = (h ^ uint32(px)) * 16777619
		}
	}
	return h
}

// MV is a motion vector in integer pixels.
type MV struct{ X, Y int16 }

// GenerateMVField builds one motion vector per 16x16 macroblock for a
// mbW×mbH macroblock grid. disrupt in [0,1] controls how chaotic the
// field is: 0 yields a smooth global pan (spatially coherent references,
// cache friendly), 1 yields large uncorrelated vectors (a "highly
// disruptive motion vector field", the mpeg2_a case of Table 5).
func GenerateMVField(mbW, mbH int, disrupt float64, seed uint32) []MV {
	rng := NewLCG(seed)
	mvs := make([]MV, mbW*mbH)
	// Global pan component.
	panX, panY := rng.Intn(9)-4, rng.Intn(9)-4
	amp := int(disrupt * 96)
	for i := range mvs {
		x, y := panX, panY
		if amp > 0 {
			x += rng.Intn(2*amp+1) - amp
			y += rng.Intn(2*amp+1) - amp
		}
		mvs[i] = MV{X: int16(x), Y: int16(y)}
	}
	return mvs
}

// MVSpread measures a field's disruptiveness as the mean absolute
// deviation from the mean vector, in pixels.
func MVSpread(mvs []MV) float64 {
	if len(mvs) == 0 {
		return 0
	}
	var sx, sy int
	for _, v := range mvs {
		sx += int(v.X)
		sy += int(v.Y)
	}
	mx, my := sx/len(mvs), sy/len(mvs)
	var dev int
	for _, v := range mvs {
		dev += abs(int(v.X)-mx) + abs(int(v.Y)-my)
	}
	return float64(dev) / float64(len(mvs))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
