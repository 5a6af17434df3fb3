#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write (Go's build cache and
# temporary files, the binary, data directories) stays under .bench_build
# in that checkout; traces go to benchmark/out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
