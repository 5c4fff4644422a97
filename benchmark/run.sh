#!/bin/bash
# What BENCHMARK.json's command runs: build the benchmark and run it with the
# given flags, reading and writing nothing outside the checkout. The go
# toolchain's build cache and scratch directory default to $HOME and /tmp, so
# both are pointed at .bench_build/ in the checkout's root (git-ignored).
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/gimbal-benchmark" .
cd "$here" # the program resolves ../BENCHMARK.json and out/ from here
exec "$build/gimbal-benchmark" "$@"
