package main

import (
	"fmt"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/prog"
	"tm3270/internal/regalloc"
	"tm3270/internal/runner"
	"tm3270/internal/sched"
	"tm3270/internal/tmsim"
)

// The traced runs call the program's compile and static-check layers one
// by one so each gets its own span. These two functions are exactly the
// sequences behind runner.Compile and Artifact.VerifyStatic/CycleBound;
// TestTracedDecompositionMatches fails if either drifts from them.

// compileTraced is runner.Compile with a span per stage.
func compileTraced(o *op, p *prog.Program, t config.Target) (*runner.Artifact, error) {
	var (
		code *sched.Code
		rm   *regalloc.Map
		enc  *encode.Encoded
		err  error
	)
	o.do("sched.schedule", func() { code, err = sched.Schedule(p, t) })
	if err != nil {
		return nil, &runner.ScheduleError{Err: err}
	}
	o.do("sched.verify", func() { err = sched.Verify(code) })
	if err != nil {
		return nil, err
	}
	o.do("regalloc.allocate", func() { rm, err = regalloc.Allocate(p) })
	if err != nil {
		return nil, err
	}
	o.do("encode.encode", func() { enc, err = encode.Encode(code, rm, tmsim.CodeBase) })
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return &runner.Artifact{Code: code, RegMap: rm, Enc: enc}, nil
}

// decodeTraced decodes an artifact's image back, as the static checks
// and the co-simulation harness do.
func decodeTraced(o *op, a *runner.Artifact) ([]encode.DecInstr, error) {
	var dec []encode.DecInstr
	var err error
	o.do("encode.decode", func() { dec, err = encode.Decode(a.Enc.Bytes, tmsim.CodeBase, len(a.Code.Instrs)) })
	if err != nil {
		return nil, fmt.Errorf("verify: image does not decode: %w", err)
	}
	return dec, nil
}

// staticCheckTraced is Artifact.VerifyStatic followed by
// Artifact.CycleBound, each decoding the image afresh as they do.
func staticCheckTraced(o *op, a *runner.Artifact, t *config.Target, opts *binverify.Options) (*binverify.Report, *binverify.CycleBound, error) {
	dec, err := decodeTraced(o, a)
	if err != nil {
		return nil, nil, err
	}
	var rep *binverify.Report
	o.do("binverify.verify", func() { rep = binverify.Verify(dec, t, opts) })
	if rep.Errors() > 0 {
		return rep, nil, fmt.Errorf("verify: %d error(s), %d warning(s)", rep.Errors(), rep.Warnings())
	}
	if dec, err = decodeTraced(o, a); err != nil {
		return rep, nil, err
	}
	var cb *binverify.CycleBound
	o.do("binverify.wcet", func() { cb = binverify.WCET(dec, t, opts) })
	return rep, cb, nil
}

// staticCheck is the untraced form: the program's own entry points.
func staticCheck(a *runner.Artifact, t *config.Target, opts *binverify.Options) (*binverify.Report, *binverify.CycleBound, error) {
	rep, err := a.VerifyStatic(t, opts)
	if err != nil {
		return rep, nil, err
	}
	cb, err := a.CycleBound(t, opts)
	return rep, cb, err
}
