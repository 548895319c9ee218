#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-tpch --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache and temporary files, the go command's
# configuration and telemetry, the binary, and the traced runs' spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" --span-dir "$out/spans" "$@"
