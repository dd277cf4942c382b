#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the root of the checkout, as BENCHMARK.json's command
# does. Everything it writes — the binary, the Go build cache, span files —
# goes under .bench_build/ in the current directory.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOTOOLCHAIN=local GOWORK=off
go build -C "$src" -o "$build/jitgc-bench" .
exec "$build/jitgc-bench" "$@"
