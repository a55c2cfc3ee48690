#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root (BENCHMARK.json's command does). Everything the
# build leaves behind goes under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$here" build -o "$build/gdi-benchmark" .
exec "$build/gdi-benchmark" "$@"
