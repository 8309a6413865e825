#!/usr/bin/env bash
# Builds the benchmark and the egiserve under test from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_fanout --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, and per-run scratch.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/egiserve" ] || {
	echo "perfbench: run from the repository root (no go.mod or cmd/egiserve here)" >&2
	exit 1
}
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	XDG_CONFIG_HOME="$root/.bench_build/config" TMPDIR="$root/.bench_build/tmp" \
	GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/egiserve" egi/cmd/egiserve) >&2
exec "$out/perfbench" -egiserve "$out/egiserve" -workdir "$root/.bench_build/runs" "$@"
