GO ?= go

.PHONY: check build vet test race fuzz bench bench-smoke campaign cosim cover bench-json bench-par lint tmvet binlint serve-smoke campaign-smoke

# Tier-1 gate: lint (vet + tmvet + gofmt), the full test suite under the
# race detector (includes the concurrent-runner and batch determinism
# tests in internal/runner, TestExecGolden — every workload's cycles,
# stall split, trap and final state on six targets, byte-compared
# against testdata/exec.golden — and TestEnginesAgree, the lockstep
# pipeline-vs-reference-model matrix), the per-package coverage-floor
# gate, the differential conformance campaign (zero divergences of the
# execution loop against the reference model), the machine-readable
# quick bench (written and schema-checked), the serial-vs-parallel
# byte-identity proof, the live-daemon smoke (boot tm3270d, drive
# load, assert zero 5xx and a clean SIGTERM drain), and the campaign
# kill/resume smoke (shard a cosim campaign, SIGKILL one shard mid-run,
# resume, and byte-compare the merged aggregate against an unsharded
# run), and one iteration of the scheduler and static-verifier
# allocation benchmarks, of the frame-check benchmark and of the cold
# load/translate/encode/decode benchmarks so they cannot rot.
check: lint race cover cosim bench-json bench-par serve-smoke campaign-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint: go vet, the repo's custom analyzers (cmd/tmvet: panicfree,
# counternames, ctxarg), a gofmt cleanliness gate, and the binary lint
# over every shipped workload image.
lint: vet tmvet binlint
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

tmvet:
	$(GO) run ./cmd/tmvet .

# binlint: static-verify every shipped workload's encoded binary with
# the full semantic contract (entry values, memory map, loop bounds):
# structural checks plus value-range proofs and loop-bound inference.
# -strict makes any diagnostic — warning included — a failure.
binlint:
	$(GO) run ./cmd/tm3270lint -strict -q

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/encode/

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke: one iteration each of the scheduler and static-verifier
# benchmarks (BenchmarkSchedule, BenchmarkVerify, BenchmarkWCET:
# mpeg2_super on config D; BenchmarkScheduleProgen: a generated 64-op
# program on config D), of the output-check benchmark
# (BenchmarkCheck: me_frac8's check of a 352x240 frame pair through
# the memory image's bulk reads) and of the cold per-unit setup
# benchmarks of a generated 64-op program on config D (BenchmarkLoad:
# machine, caches and memory image; BenchmarkTranslate: every block;
# BenchmarkEncode and BenchmarkDecode: its binary image), allocations
# reported, so a change that breaks them fails the build.
bench-smoke:
	$(GO) test -run=NONE -bench='Schedule|Verify|WCET|Check|Load|Translate|Encode|Decode' -benchtime=1x ./internal/runner/ ./internal/workloads/ ./internal/blockcache/ ./internal/encode/

# campaign: the seeded fault-injection campaign (208 runs, each
# classified detected, masked or not-injected) followed by the
# 256-mutant x 5-machine-seed matrix, which prints the static and the
# combined static+differential detection rates.
campaign:
	$(GO) run ./cmd/tm3270bench -faults

# cosim: the differential conformance campaign — every workload plus
# 2000 generated programs, pipeline model vs reference model, all four
# targets. Exits nonzero on any divergence.
cosim:
	$(GO) run ./cmd/tm3270bench -quick -cosim

# cover: per-package statement coverage against the checked-in floors
# (coverage_floors.txt), enforced by cmd/covergate.
cover:
	$(GO) test -count=1 -cover ./... > COVER.out 2>&1 || (cat COVER.out; rm -f COVER.out; exit 1)
	@$(GO) run ./cmd/covergate < COVER.out; s=$$?; rm -f COVER.out; exit $$s

# cover-ratchet: same gate, but also raise the floor of any package
# holding floor+5 and rewrite coverage_floors.txt (commit the result).
cover-ratchet:
	$(GO) test -count=1 -cover ./... > COVER.out 2>&1 || (cat COVER.out; rm -f COVER.out; exit 1)
	@$(GO) run ./cmd/covergate -ratchet < COVER.out; s=$$?; rm -f COVER.out; exit $$s

# Quick-mode machine-readable bench result. The bench validates the
# written file (schema version + stall-accounting identity) and fails
# the build on mismatch.
bench-json:
	$(GO) run ./cmd/tm3270bench -quick -json BENCH_quick.json

# bench-par: the batch runner's determinism contract, end to end — the
# quick bench JSON at -parallel 4 must be byte-identical to -parallel 1.
bench-par:
	$(GO) run ./cmd/tm3270bench -quick -parallel 1 -json BENCH_serial.json
	$(GO) run ./cmd/tm3270bench -quick -parallel 4 -json BENCH_par.json
	cmp BENCH_serial.json BENCH_par.json
	@rm -f BENCH_serial.json BENCH_par.json
	@echo "bench-par: parallel output byte-identical to serial"

# serve-smoke: boot the daemon, hammer it with the shed-aware load
# driver, SIGTERM it, and assert zero 5xx plus a clean drain with no
# dropped in-flight responses.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# campaign-smoke: the campaign engine's durability contract, end to
# end — a sharded cosim campaign with one shard SIGKILLed mid-run must
# resume from its store and the merged aggregate must be byte-identical
# to an unsharded run of the same matrix; a small sharded-and-merged
# mutant matrix must match its unsharded run the same way.
campaign-smoke:
	GO=$(GO) sh scripts/campaign_smoke.sh
