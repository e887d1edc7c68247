#!/usr/bin/env bash
# Builds tm3270perf from source and runs it with the given arguments.
#
#   bash cmd/tm3270perf/run.sh --workload suite-full --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the toolchain's own state, temp
# directories and the binary. The first run compiles the standard library
# into that cache and takes a few minutes; later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C "$root/cmd/tm3270perf" build -o "$build/tm3270perf" .
exec "$build/tm3270perf" "$@"
