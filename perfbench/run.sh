#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it from
# the checkout's root, passing every argument through:
#
#   bash perfbench/run.sh --workload pagerank-heap --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and temporary build files stay in
# .bench_build; the benchmark's own output goes to .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
