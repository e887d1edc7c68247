// Package workloads implements the paper's evaluation kernels and
// applications (Table 5) plus the CABAC decoding workloads of Table 3
// and the TM3270-specific ablation kernels, all written in the prog
// DSL against the TriMedia ISA, each with a pure-Go reference that
// validates the simulated output.
package workloads

import (
	"errors"
	"fmt"

	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/prog"
)

// Spec is one workload: its kernel program, fixed inputs and output
// check. A Spec is an immutable value. Init and Check keep no state
// between calls (everything a run produces lives in the image they are
// handed), so one Spec may back any number of concurrent runs, each
// with its own image.
type Spec struct {
	Name        string
	Description string
	Prog        *prog.Program
	// Init populates the memory image (inputs, tables). It reports
	// input-generation failures instead of panicking.
	Init func(m *mem.Func) error
	// Args are the kernel argument registers.
	Args map[prog.VReg]uint32
	// Check validates the outputs in m against the Go reference. It
	// reads only m and the spec's construction-time values.
	Check func(m *mem.Func) error
	// TM3270Only marks workloads using ISA extensions that the TM3260
	// cannot schedule (Table 3 / ablations).
	TM3270Only bool
	// Regions is the workload's declared memory map: every address the
	// kernel may legally touch lies in one of these. binverify uses it
	// to prove load/store addresses in-bounds; workloads that program
	// the prefetch engine include its MMIO window.
	Regions []mem.Region
}

// ErrInit and ErrCheck mark, for errors.Is, which step of Reference
// failed. The error Reference returns keeps the step's own text.
var (
	ErrInit  = errors.New("workload init failed")
	ErrCheck = errors.New("workload output check failed")
)

// stepError tags a step's error with its sentinel without changing
// the error's text.
type stepError struct{ step, err error }

func (e *stepError) Error() string   { return e.err.Error() }
func (e *stepError) Unwrap() []error { return []error{e.step, e.err} }

// Reference executes the workload on the sequential reference
// interpreter (no VLIW packing, no timing) over a fresh image, checks
// its outputs and returns the final image. Init and Check failures
// match ErrInit and ErrCheck.
func (s *Spec) Reference() (*mem.Func, error) {
	image := mem.NewFunc()
	if s.Init != nil {
		if err := s.Init(image); err != nil {
			return nil, &stepError{ErrInit, err}
		}
	}
	in := prog.NewInterp(s.Prog, image)
	in.MaxOps = 2_000_000_000
	for v, val := range s.Args {
		in.SetReg(v, val)
	}
	if err := in.Run(); err != nil {
		return nil, err
	}
	if s.Check != nil {
		if err := s.Check(image); err != nil {
			return nil, &stepError{ErrCheck, err}
		}
	}
	return image, nil
}

// region builds one memory-map entry covering [base, base+size).
func region(name string, base uint32, size int) mem.Region {
	return mem.Region{Name: name, Lo: base, Hi: base + uint32(size)}
}

// appendMMIO adds the prefetch-engine register window to a memory map
// when the workload variant programs it.
func appendMMIO(pf bool, rs []mem.Region) []mem.Region {
	if pf {
		rs = append(rs, region("pf-mmio", prefetch.MMIOBase, prefetch.MMIOSize))
	}
	return rs
}

// Params scales the workloads. Full() matches the paper's evaluation
// sizes; Small() keeps unit tests fast.
type Params struct {
	MemKB  int // memset/memcpy region (paper: 64 KB)
	ImageW int // EEMBC and TV kernels (paper: standard definition)
	ImageH int
	FieldH int // TV kernels operate on fields (paper: 720x240)
	Mpeg2W int
	Mpeg2H int
	// Mpeg2Frames chains N decoded frames, each motion compensated from
	// the previous one (steady-state cache behaviour); 0 means 1.
	Mpeg2Frames int
	CabacIBits  int // Table 3 bits per field type
	CabacPBits  int
	CabacBBits  int
	MP3Granules int
}

// Full returns the paper's evaluation sizes.
func Full() Params {
	return Params{
		MemKB:  64,
		ImageW: 720, ImageH: 480,
		FieldH: 240,
		Mpeg2W: 720, Mpeg2H: 480,
		Mpeg2Frames: 3,
		CabacIBits:  215408, CabacPBits: 103544, CabacBBits: 153035,
		MP3Granules: 64,
	}
}

// Small returns fast sizes for tests, preserving all structure.
func Small() Params {
	return Params{
		MemKB:  4,
		ImageW: 64, ImageH: 32,
		FieldH: 16,
		Mpeg2W: 64, Mpeg2H: 48,
		CabacIBits: 4000, CabacPBits: 3000, CabacBBits: 2500,
		MP3Granules: 4,
	}
}

// Table5Names lists the Figure 7 evaluation set in paper order. These
// kernels use only the common TriMedia ISA ("optimized for the TM3260,
// re-compiled for the TM3270 without modification").
func Table5Names() []string {
	return []string{
		"memset", "memcpy", "filter", "rgb2yuv", "rgb2cmyk", "rgb2yiq",
		"mpeg2_a", "mpeg2_b", "mpeg2_c", "filmdet", "majority_sel",
	}
}

// Table5 builds the Figure 7 evaluation set in paper order.
func Table5(p Params) ([]*Spec, error) {
	var set []*Spec
	for _, name := range Table5Names() {
		w, err := ByName(name, p)
		if err != nil {
			return nil, err
		}
		set = append(set, w)
	}
	return set, nil
}

func checkRegion(m *mem.Func, base uint32, want []byte, what string) error {
	for i, w := range want {
		if got := m.ByteAt(base + uint32(i)); got != w {
			return fmt.Errorf("%s: byte %d = %#x, want %#x", what, i, got, w)
		}
	}
	return nil
}

func clip8(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func clipS8(v int32) byte {
	if v < -128 {
		v = -128
	}
	if v > 127 {
		v = 127
	}
	return byte(int8(v))
}

// pack16 packs two signed 16-bit values into the DUAL16 constant form
// used for ifir16 coefficient pairs.
func pack16(hi, lo int16) uint32 {
	return uint32(uint16(hi))<<16 | uint32(uint16(lo))
}

// registry is the ordered table of workload constructors; ByName and
// Names both read it, so the two cannot disagree. Besides the Table 5
// set, it holds the CABAC fields of Table 3, the MP3-shaped power
// workload, the Figure 3 block walk and the motion-estimation ablation
// variants.
var registry = []struct {
	name  string
	build func(Params) (*Spec, error)
}{
	{"memset", infallible(Memset)},
	{"memcpy", infallible(Memcpy)},
	{"filter", infallible(Filter)},
	{"rgb2yuv", infallible(RGB2YUV)},
	{"rgb2cmyk", infallible(RGB2CMYK)},
	{"rgb2yiq", infallible(RGB2YIQ)},
	{"mpeg2_a", Mpeg2A},
	{"mpeg2_b", Mpeg2B},
	{"mpeg2_c", Mpeg2C},
	{"mpeg2_super", Mpeg2Super},
	{"filmdet", infallible(FilmDet)},
	{"majority_sel", infallible(MajoritySel)},
	{"mp3_synth", infallible(MP3Synth)},
	{"blockwalk", infallible(func(p Params) *Spec { return BlockWalk(p, false) })},
	{"blockwalk_pf", infallible(func(p Params) *Spec { return BlockWalk(p, true) })},
	{"upconv", infallible(func(p Params) *Spec { return Upconv(p, false) })},
	{"upconv_pf", infallible(func(p Params) *Spec { return Upconv(p, true) })},
	{"cabac_ref_i", infallible(func(p Params) *Spec { return CABACRef(FieldI(p.CabacIBits)) })},
	{"cabac_ref_p", infallible(func(p Params) *Spec { return CABACRef(FieldP(p.CabacPBits)) })},
	{"cabac_ref_b", infallible(func(p Params) *Spec { return CABACRef(FieldB(p.CabacBBits)) })},
	{"cabac_opt_i", infallible(func(p Params) *Spec { return CABACOpt(FieldI(p.CabacIBits)) })},
	{"cabac_opt_p", infallible(func(p Params) *Spec { return CABACOpt(FieldP(p.CabacPBits)) })},
	{"cabac_opt_b", infallible(func(p Params) *Spec { return CABACOpt(FieldB(p.CabacBBits)) })},
	{"me_ref", infallible(func(p Params) *Spec { return MotionEst(MEParams{W: p.ImageW, H: p.ImageH}) })},
	{"me_frac8", infallible(func(p Params) *Spec {
		return MotionEst(MEParams{W: p.ImageW, H: p.ImageH, UseFrac8: true})
	})},
	{"me_frac8_pf", infallible(func(p Params) *Spec {
		return MotionEst(MEParams{W: p.ImageW, H: p.ImageH, UseFrac8: true, Prefetch: true})
	})},
}

// infallible adapts a constructor that cannot fail to the registry's
// signature.
func infallible(build func(Params) *Spec) func(Params) (*Spec, error) {
	return func(p Params) (*Spec, error) { return build(p), nil }
}

// ByName builds a workload by its registry name.
func ByName(name string, p Params) (*Spec, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(p)
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (see Names)", name)
}

// Names lists every registry name in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}
