#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# arguments are the benchmark's own (see main.go). This is the command
# BENCHMARK.json names. Everything the build writes — compiler cache,
# binary — lands in .bench_build/ at the checkout root, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPROXY=off
export GOTOOLCHAIN=local

# The benchmark is its own module (benchmark/go.mod) that imports the
# repository through a replace directive; without the repository beside
# it this build fails and nothing is measured.
go build -C "$bench_dir" -o "$build/benchmark" .

cd "$root"
exec "$build/benchmark" "$@"
