#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# BENCHMARK.json's command. Everything the build and the run write (the Go
# build cache, the binary, the WAL, the span file) goes under .bench_build/
# in the checkout, which .gitignore names. Arguments pass through:
#   bash bench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" -scratch "$build" "$@"
