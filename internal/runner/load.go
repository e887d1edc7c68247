package runner

import (
	"context"

	"tm3270/internal/mem"
	"tm3270/internal/tmsim"
)

// Loaded is a machine-ready execution handle: one immutable compile
// artifact loaded against one private memory image, with the per-run
// options already applied. It is the typed composition point for
// precompiled-artifact execution: build an Artifact once (Compile /
// CompileWorkload / the batch cache), then Load it any number of
// times; every handle owns its machine and image, so concurrent
// handles never share mutable state.
//
// Loaded replaces the old pattern of constructing a tmsim machine from
// the artifact's three fields and poking run flags onto it one by one.
type Loaded struct {
	// Artifact is the immutable build product this handle executes.
	Artifact *Artifact
	// Machine is the underlying simulator instance. Callers may still
	// adjust it (argument registers, hooks) before RunContext.
	Machine *tmsim.Machine
	// Image is the memory image the machine reads and writes.
	Image *mem.Func
}

// Load builds an execution handle for a precompiled artifact: a fresh
// machine over the given memory image with the options applied. A nil
// image gets a fresh empty one.
func Load(a *Artifact, image *mem.Func, opts ...Option) *Loaded {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return loadWith(a, image, &o)
}

// loadWith is the option-struct form shared with RunContext.
func loadWith(a *Artifact, image *mem.Func, o *Options) *Loaded {
	if image == nil {
		image = mem.NewFunc()
	}
	m := tmsim.Load(a.Code, a.RegMap, a.Enc, image)
	m.MaxInstrs = o.Watchdog
	m.StrictMem = o.StrictMem
	if o.Setup != nil {
		o.Setup(m)
	}
	return &Loaded{Artifact: a, Machine: m, Image: image}
}

// RunContext executes the loaded machine under ctx. See
// tmsim.Machine.RunContext for trap semantics.
func (l *Loaded) RunContext(ctx context.Context) error {
	return l.Machine.RunContext(ctx)
}
