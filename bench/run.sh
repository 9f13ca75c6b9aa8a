#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags, for example:
#
#   bash bench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The build keeps everything it writes (Go build and module caches,
# temporary files, the binary) under .bench_build/ at the root of the
# checkout, and the runs write under .bench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C bench build -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
