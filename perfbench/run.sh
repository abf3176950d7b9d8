#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload flight-baseline --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# checkout: the Go build cache, the binary and the workloads' work
# files. The build uses only the local toolchain and needs no network.
set -euo pipefail

root=$(pwd)
work="$root/.perfbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
