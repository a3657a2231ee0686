#!/usr/bin/env bash
# Builds the perf ledger from source and runs it, keeping every file the
# build and the run write inside the checkout: the Go build cache, temp
# files, the binary and the benchmark's scratch directories all live under
# .bench_build/ (ignored by git). Arguments are passed through, e.g.
#
#   bash bench/run.sh --workload wire_mem --seed 1 --seconds 16 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/clamshell-perfbench" .)
export CLAMSHELL_BENCH_WORK="$build/work"
cd "$root"
exec "$build/clamshell-perfbench" "$@"
