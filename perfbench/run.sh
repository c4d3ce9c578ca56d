#!/usr/bin/env bash
# Builds the benchmark program and the autoce-serve binary from the
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload advisor-build --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, temporary files, span dumps) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/traces"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/autoce-serve" ./cmd/autoce-serve

exec "$out/perfbench" -server "$out/autoce-serve" -trace-dir "$out/traces" "$@"
