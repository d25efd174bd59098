#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json's command): build
# the harness from source into .bench_build/ in the checkout, then run
# it with the driver's arguments. Everything Go writes (build cache,
# temp files, the binary, the span file) stays inside the checkout, and
# nothing is fetched: the module uses the standard library only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$out/hotc-benchmark" .
exec "$out/hotc-benchmark" -trace-out "$out/spans.jsonl" "$@"
