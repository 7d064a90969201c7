#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build product and temporary file stays under .bench_build.
#
#   bash perfbench/run.sh --workload campaign --seed 0 --seconds 50 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
