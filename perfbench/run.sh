#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload tpcb --seed 1 --seconds 12 --trace 0
#
# Build outputs (binary, Go build cache, traces) go under $CARGO_TARGET_DIR,
# default .bench_build, so the run reads and writes only inside the tree.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/trace" "$build/home"
build="$(cd "$build" && pwd)"

# Everything the go command writes (build cache, module cache, temporary
# files, its per-user configuration and telemetry) stays under $build.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The engine reads these to change two Options defaults; the benchmark
# measures the defaults.
unset TDB_WRITEBEHIND TDB_SCANPREFETCH

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -trace-dir "$build/trace" "$@"
