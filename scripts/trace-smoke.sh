#!/bin/sh
# trace-smoke: a splicetrace view (report, timeseries) over the traces of
# quick Figure 2 must be byte-stable and its stalls fully attributed. Runs
# the traced figure into each directory (at the given -workers count, if
# any), renders the view's machine form twice from the first directory and
# once from every further one, and byte-compares them all: each cell's log
# is fixed by its seed and splicetrace reads a directory's logs in name
# order, so neither reruns nor the -workers count may move a byte. With a
# reference, the machine form must also equal that file of the first
# directory — the aggregate cmd/experiment wrote itself. Figure values are
# bit-identical with tracing on or off (DESIGN.md §8). Last, the view's
# text form.
#
# usage: trace-smoke.sh <view> <-json|-csv> <stem> <text> <reference|-> <dir>[:<workers>]...
# Artifacts land in $ARTIFACTS as <dir>/, <stem>-a.<ext>, <stem>-b.<ext>,
# <stem>-w<workers>.<ext> per further directory, and <text>.
set -eu

VIEW=$1 FLAG=$2 TEXT=$4 REF=$5
A="${ARTIFACTS:-artifacts}"
OUT="$A/$3" EXT=${FLAG#-}
GO="${GO:-go}"
shift 5
mkdir -p "$A"

splicetrace() { "$GO" run ./cmd/splicetrace "$@"; }

first=
for spec in "$@"; do
    dir="$A/${spec%%:*}"
    workers=${spec#"${spec%%:*}"}
    # shellcheck disable=SC2086
    "$GO" run ./cmd/experiment -quick -figure 2 -trace "$dir" ${workers:+-workers ${workers#:}} > /dev/null
    echo "trace-smoke[$VIEW]: $(ls "$dir" | wc -l) artifacts in $dir/"
    if [ -z "$first" ]; then
        first=$dir
        splicetrace report "$dir" -require-attributed > /dev/null
        splicetrace "$VIEW" "$dir" "$FLAG" -o "$OUT-a.$EXT"
        splicetrace "$VIEW" "$dir" "$FLAG" -o "$OUT-b.$EXT"
        cmp "$OUT-a.$EXT" "$OUT-b.$EXT"
    else
        splicetrace "$VIEW" "$dir" "$FLAG" -o "$OUT-w${workers#:}.$EXT"
        cmp "$OUT-a.$EXT" "$OUT-w${workers#:}.$EXT"
    fi
done
[ "$REF" = - ] || cmp "$OUT-a.$EXT" "$first/$REF"
splicetrace "$VIEW" "$first" -o "$A/$TEXT"
echo "trace-smoke[$VIEW]: stalls fully attributed, $FLAG output byte-identical across reruns and trace directories"
