#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through (see benchmark/README.md):
#
#   bash benchmark/run.sh --workload ba-mis --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, temporary files, the binary) stays under
# .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/dgp-benchmark" .)
exec "$build/dgp-benchmark" "$@"
