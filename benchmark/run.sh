#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload query_hot --seed 1 --seconds 13 --trace 0
#
# Everything the Go toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/spqbenchmark" .
exec "$build/spqbenchmark" "$@"
