#!/usr/bin/env bash
# Builds the benchmark and the stock sbserved daemon from this checkout,
# then runs one benchmark invocation with the given arguments:
#
#   bash benchmark/run.sh --workload deliver --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build caches, binaries, daemon
# snapshots and trace output all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -o "$out/benchmark" ./benchmark
go build -o "$out/sbserved" ./cmd/sbserved
exec "$out/benchmark" "$@"
