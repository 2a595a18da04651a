#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build/ at the repository root, keeping the Go build cache and
# temporary files there too so that nothing is written outside the
# checkout, then runs it with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/archbench" .
cd "$root"
exec "$build/archbench" "$@"
