#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes (Go's build cache and work directory
# included) stays under .bench_build in the checkout, and the toolchain
# is pinned to the installed one, so a run touches nothing outside its
# checkout and needs no network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/ipbench" . >&2
exec "$build/ipbench" "$@"
