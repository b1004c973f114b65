#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -workload all -seed 1
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binaries) stays in .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/optimus-bench" .)
exec "$build/optimus-bench" "$@"
