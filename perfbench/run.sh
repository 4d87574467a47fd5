#!/usr/bin/env bash
# Builds the benchmark and cmd/obscheck from this checkout's sources and
# runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#
# Every file it writes stays inside the checkout: build outputs and the
# Go build cache under .bench_build, traces and layer tables under
# .bench_out.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$build/perfbench" .)
go build -o "$build/obscheck" ./cmd/obscheck

exec "$build/perfbench" "$@" -out "$root/.bench_out" -obscheck "$build/obscheck"
