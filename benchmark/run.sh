#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build and the run write — Go's build cache and temp files, the ncd and
# ncctl binaries, daemon scratch directories — goes under .bench_build in the
# checkout, and results under benchmark/out.
#
#   bash benchmark/run.sh --workload inproc-k4 --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare benchmark/out/a.jsonl benchmark/out/b.jsonl
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal/dataplane ]; then
	echo "benchmark: $(pwd) is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
