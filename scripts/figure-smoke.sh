#!/bin/sh
# figure-smoke: a registry figure (cmd/experiment -figure KEY) must be
# bit-reproducible. Runs the quick-scale figure twice at -workers 1 and
# byte-compares the JSON, then once at -workers 4 and compares again with
# the legitimately varying fields (elapsed_ms, workers) stripped. With
# "attributed", regenerates it with per-cell traces and requires 100%
# stall attribution from splicetrace; a fourth argument is a string the
# trace report must contain.
#
# usage: figure-smoke.sh <figure> <prefix> [attributed [report-must-contain]]
# Artifacts land in $ARTIFACTS as <prefix>-smoke-*.json, <prefix>-trace-quick/
# and <prefix>-trace-report.txt.
set -eu

FIGURE=$1
OUT="${ARTIFACTS:-artifacts}/$2"
GO="${GO:-go}"
mkdir -p "$(dirname "$OUT")"

run() { "$GO" run ./cmd/experiment -quick -figure "$FIGURE" "$@"; }

# same <pattern> <file> <file>: the files agree once lines matching pattern go.
same() {
    grep -v "$1" "$2" > "$2.stripped"
    grep -v "$1" "$3" > "$3.stripped"
    cmp "$2.stripped" "$3.stripped"
}

run -json -workers 1 > "$OUT-smoke-a.json"
run -json -workers 1 > "$OUT-smoke-b.json"
run -json -workers 4 > "$OUT-smoke-c.json"
same '"elapsed_ms"' "$OUT-smoke-a.json" "$OUT-smoke-b.json"
same '"elapsed_ms"\|"workers"' "$OUT-smoke-a.json" "$OUT-smoke-c.json"
echo "$2-smoke: $FIGURE figure bit-identical across runs and workers"

if [ "${3:-}" = attributed ]; then
    run -trace "$OUT-trace-quick" > /dev/null
    "$GO" run ./cmd/splicetrace report "$OUT-trace-quick" -require-attributed > "$OUT-trace-report.txt"
    if [ -n "${4:-}" ] && ! grep -q "$4" "$OUT-trace-report.txt"; then
        echo "$2-smoke: trace report is missing \"$4\"" >&2
        exit 1
    fi
    echo "$2-smoke: stalls fully attributed"
fi
