#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything Go writes (build cache, module
# path) stays inside .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/netcache-bench" .
exec "$build/netcache-bench" "$@"
