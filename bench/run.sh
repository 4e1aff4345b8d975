#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash bench/run.sh --workload web-sweep --seed 0 --seconds 20 --trace 0
#
# The build cache, the binary, traces and scratch files all live under
# .bench_build/ in the current directory, so a fresh checkout pays one
# cold build and later runs reuse it. Nothing is fetched: the benchmark
# depends only on the repository and the standard library.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/diskthru-bench" .
exec "$build/diskthru-bench" "$@"
