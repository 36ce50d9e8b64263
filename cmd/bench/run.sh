#!/usr/bin/env bash
# Builds cmd/bench from source and runs it from the root of the checkout.
# This is the command BENCHMARK.json names. Everything the build writes
# (binary, Go build cache, module cache) stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
