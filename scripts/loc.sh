#!/bin/sh
# loc: non-blank Go lines, non-test and test, per internal/* and cmd/*
# package directory (subdirectories and testdata included), then the
# root-module total (those plus examples/ and the root *.go). cmd/bench is
# a module of its own: listed, not summed.
#
# Given a parent revision, it counts that revision too (a `git archive`
# of it, so no network and nothing registered in .git) and prints each
# package's parent and change counts and their delta; a package one side
# lacks counts 0 there. A deletion PR quotes its before/after rows from
# this table.
#
# usage: loc.sh [parent-rev] > artifacts/loc.txt     (make loc [PARENT=<rev>])
set -eu

# lines <dir> <find test...>: non-blank lines of the matching Go files
# outside cmd/bench and the git-ignored build and artifact dirs (a
# parent's source tree extracted there is not this tree's code); 0 for
# a missing dir.
lines() {
    dir=$1
    shift
    [ -d "$dir" ] || { echo 0; return; }
    find "$dir" \( -path ./cmd/bench -o -path ./artifacts -o -path ./.bench_build \) -prune \
        -o -type f -name '*.go' "$@" -exec cat {} + | grep -c '[^[:space:]]' || true
}

row() { printf '%-28s %8s %8s\n' "$1" "$(lines "$2" ! -name '*_test.go')" "$(lines "$2" -name '*_test.go')"; }

# pkgs: the package dirs of the tree in the current directory.
pkgs() {
    for d in internal/*/ cmd/*/; do
        d=${d%/}
        [ "$d" = cmd/bench ] || echo "$d"
    done
}

# ledger <dir>...: the table of the tree in the current directory, one
# row per given package dir, then the totals.
ledger() {
    printf '%-28s %8s %8s\n' package non-test test
    for d in "$@"; do
        row "$d" "./$d"
    done
    row "root module" .
    row "cmd/bench (own module)" cmd/bench
}

if [ $# -eq 0 ]; then
    # shellcheck disable=SC2046
    ledger $(pkgs)
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$1" | tar -x -C "$tmp/src"
# The change's packages in ledger order, then any only the parent has.
all=$({ pkgs; (cd "$tmp/src" && pkgs); } | awk '!seen[$0]++')
# shellcheck disable=SC2086
(cd "$tmp/src" && ledger $all) > "$tmp/parent"
# shellcheck disable=SC2086
ledger $all > "$tmp/change"

# Both ledgers list the same rows in the same order: join them by line.
awk '
NR == FNR { parent[FNR] = $0; next }
FNR == 1 {
    printf "%-28s %26s  %26s\n", "", "---------- non-test --------", "------------ test ----------"
    printf "%-28s %8s %8s %8s  %8s %8s %8s\n", "package", "parent", "change", "delta", "parent", "change", "delta"
    next
}
{
    n = split(parent[FNR], p)
    pn = p[n - 1]; pt = p[n]
    printf "%-28s %8d %8d %+8d  %8d %8d %+8d\n", substr($0, 1, 28), pn, $(NF - 1), $(NF - 1) - pn, pt, $NF, $NF - pt
}' "$tmp/parent" "$tmp/change"
