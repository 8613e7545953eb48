#!/usr/bin/env bash
# Builds the CH benchmark from the checkout's sources and runs it. Run it
# from the root of a hybriddb checkout; every argument is passed on:
#
#   bash perfbench/run.sh --workload ch_olap --seed 21 --seconds 20 --trace 0
#
# The build cache, the binary and the toolchain's per-user files (its
# config directory and GOPATH) live in .bench_build under the checkout,
# so nothing outside it is written.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/workload" ]; then
	echo "perfbench: run from the root of a hybriddb checkout (no go.mod/internal here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
