#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes (compiler cache, temporary files, the binary) stays under
# .bench_build in the checkout; the harness writes under bench/out.
#
#   bash bench/run.sh --workload tier_suggest_hot --seed 3 --seconds 15 --trace 0
#
# Run it from the root of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/pfbench" .
exec "$build/pfbench" "$@"
