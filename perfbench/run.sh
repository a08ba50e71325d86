#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload synth-flash-mcn --seed 1 --seconds 15 --trace 0
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the run scratch.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
