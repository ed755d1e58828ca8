#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root of
# the checkout and runs it. Everything the Go toolchain writes (build cache,
# temporary files, the binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/a2bench" .)
exec "$build/a2bench" "$@"
