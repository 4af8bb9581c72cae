#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through. Everything the build and the run write stays under
# .bench_build/ in the current directory (the checkout's root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/papar-bench" .
exec "$out/papar-bench" -build-dir "$out" "$@"
