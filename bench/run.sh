#!/usr/bin/env bash
# Builds the benchmark runner and runs it with the given flags. This is the
# command of BENCHMARK.json and the one command for CI:
#
#   bash bench/run.sh -workload all -seed 1             end-to-end metrics
#   bash bench/run.sh -workload all -seed 1 -trace 1    plus the per-layer run
#
# Everything the build and the run write stays inside the checkout: the
# binary and Go's build cache under .bench_build/, spans and scratch stores
# under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C bench build -o "$build/rtopex-bench" .
exec "$build/rtopex-bench" "$@"
