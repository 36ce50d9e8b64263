#!/bin/sh
# loc: non-blank Go lines, non-test and test, per internal/* and cmd/*
# package directory (subdirectories and testdata included), then the
# root-module total (those plus examples/ and the root *.go). cmd/bench is
# a module of its own: listed, not summed.
# A deletion PR quotes its before/after rows from this table.
#
# usage: loc.sh > artifacts/loc.txt
set -eu

# lines <dir> <find test...>: non-blank lines of the matching Go files
# outside cmd/bench.
lines() {
    dir=$1
    shift
    find "$dir" -path ./cmd/bench -prune -o -type f -name '*.go' "$@" -exec cat {} + | grep -c '[^[:space:]]' || true
}

row() { printf '%-28s %8s %8s\n' "$1" "$(lines "$2" ! -name '*_test.go')" "$(lines "$2" -name '*_test.go')"; }

printf '%-28s %8s %8s\n' package non-test test
for d in internal/*/ cmd/*/; do
    d=${d%/}
    [ "$d" = cmd/bench ] || row "$d" "./$d"
done
row "root module" .
row "cmd/bench (own module)" cmd/bench
