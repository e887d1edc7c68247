package runner_test

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/progen"
	"tm3270/internal/runner"
)

var loadSink *runner.Loaded

// BenchmarkLoad measures building a fresh execution handle (machine,
// caches, memory image) for a generated 64-op program on config D: the
// per-unit setup of a generated-program conformance run.
func BenchmarkLoad(b *testing.B) {
	tgt := config.ConfigD()
	art, err := runner.Compile(progen.Generate(progen.Config{Seed: 1, Target: &tgt, Ops: 64}), tgt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadSink = runner.Load(art, nil)
	}
}
