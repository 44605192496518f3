#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments.
# Run from the repository root:
#
#   bash perf/run.sh --workload paper-matrix --seed 1 --seconds 30 --trace 0
#   bash perf/run.sh -runs 10 -out results.json     (every workload, summarized)
#   bash perf/run.sh -compare old.json new.json
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and the
# benchmark's scratch directories. The build never downloads anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$root/perf" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -tmp "$build/tmp" "$@"
