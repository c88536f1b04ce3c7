#!/usr/bin/env bash
# Builds the benchmark and the bcclap-serve daemon from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fresh --seed 1 --seconds 20 --trace 0
#
# Every build artifact and the Go build cache stay under .bench_build and
# every run output under .bench_out, inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bcclap-serve" ]; then
	echo "run.sh: run from the root of a bcclap checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off
export TMPDIR="$build/tmp"

go build -o "$build/bin/bcclap-serve" ./cmd/bcclap-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)

BENCH_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_GIT_COMMIT
exec "$build/bin/perfbench" -serve-bin "$build/bin/bcclap-serve" -out "$root/.bench_out" "$@"
