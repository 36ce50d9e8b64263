#!/bin/sh
# bench-alloc: the //lint:hotpath contract, measured. A function whose doc
# comment has a line starting //lint:hotpath promises zero heap allocations
# per call after warm-up. The gates are the BenchmarkHotpath* benchmarks,
# which must report 0 allocs/op, and the zero-alloc tests (AllocsPerRun
# and MemStats bounds; their files build only without -race, so
# `make race` never runs them). The same gates then run once more with
# coverage of ./internal/..., and every marker is matched to the func line
# after it, by file and line: the script fails, naming the function, on
# any marked function that no gate executes. Not run under -race
# (instrumentation allocates).
#
# usage: bench-alloc.sh        (make bench-alloc; writes $ARTIFACTS/bench-alloc.txt)
set -eu

GO="${GO:-go}"
OUT=${ARTIFACTS:-artifacts}
tests='^Test(ZeroAlloc|AtAllocatesOnce|RunAllocsPerDownload|StoreBlockZeroAlloc)'
pkgs='./internal/wire ./internal/trace ./internal/sim ./internal/netem ./internal/core ./internal/simpeer ./internal/peer'

# shellcheck disable=SC2086 # one argument per package
"$GO" test -run="$tests" -bench='^BenchmarkHotpath' -benchmem $pkgs > "$OUT/bench-alloc.txt" ||
    { cat "$OUT/bench-alloc.txt"; exit 1; }
cat "$OUT/bench-alloc.txt"
awk '/^BenchmarkHotpath/ { seen++; if ($(NF-1) != 0) { print "bench-alloc: " $1 " allocates " $(NF-1) " allocs/op, want 0"; bad = 1 } }
    END { if (!seen) { print "bench-alloc: no hotpath benchmarks ran"; exit 1 }; if (bad) exit 1; print "bench-alloc: " seen " hotpath benchmarks at 0 allocs/op" }' "$OUT/bench-alloc.txt"

# The coverage run only has to reach code, so one iteration per benchmark.
# shellcheck disable=SC2086
"$GO" test -run="$tests" -bench='^BenchmarkHotpath' -benchtime=1x -coverpkg=./internal/... \
    -coverprofile="$OUT/hotpath.cover" $pkgs > "$OUT/hotpath-cover.txt" ||
    { cat "$OUT/hotpath-cover.txt"; exit 1; }

# The first input (stdin) is `go tool cover -func`: <module>/<file>:<line>:
# <name> <percent>, one row per function, keyed by its func line. Then every
# non-test Go file of the module outside testdata and cmd/bench (its own
# module), where a marker must sit in a func's doc comment.
files=$(find internal cmd examples ./*.go -path cmd/bench -prune -o -path '*/testdata' -prune -o \
    -name '*.go' ! -name '*_test.go' -print | sed 's#^\./##' | sort)
# shellcheck disable=SC2086
"$GO" tool cover -func="$OUT/hotpath.cover" | awk -v module="$("$GO" list -m)" '
FILENAME == "-" {
    key = $1
    sub(/:$/, "", key)
    pct[key] = $NF
    next
}
FNR == 1 { marker = 0 }
marker {
    if (/^\/\//) next
    marker = 0
    if (!/^func /) {
        printf "bench-alloc: %s:%d: //lint:hotpath is not in a func doc comment\n", FILENAME, markline
        bad = 1
        next
    }
    marked++
    match($0, /^func (\([^)]*\) )?[A-Za-z0-9_]+/)
    name = substr($0, 1, RLENGTH)
    key = module "/" FILENAME ":" FNR
    if (!(key in pct) || pct[key] == "0.0%") {
        printf "bench-alloc: %s:%d: %s is marked //lint:hotpath but no zero-alloc gate executes it\n", FILENAME, FNR, name
        bad = 1
        next
    }
    run++
}
/^\/\/lint:hotpath/ { marker = 1; markline = FNR }
END {
    printf "bench-alloc: %d of %d //lint:hotpath functions executed by the zero-alloc gates\n", run, marked
    if (bad || !marked) exit 1
}' - $files
