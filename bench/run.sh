#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The Go build cache and the binary live in .bench_build/, scratch files in
# bench/out/; nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/janus-bench" .) >&2
cd "$root"
exec "$build/janus-bench" "$@"
