#!/usr/bin/env bash
# Builds hostbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash hostbench/run.sh --workload flit-mesh --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span dumps.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
