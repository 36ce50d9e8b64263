#!/bin/sh
# identity: prove a change leaves every emulation output bit-identical to
# a parent revision. Builds the parent (a `git archive` of PARENT, so no
# network and nothing registered in .git to clean up) and the change (the
# working tree as it stands), runs one fixed artifact set on each —
#
#   quick/     traced -quick run of the paper set plus the churn, burst,
#              adversary and ablation figures, text + traces
#   report.json, timeseries.csv
#              splicetrace report / timeseries -csv over those traces
#   paper.txt  default-scale text output of the paper set (Figures 2-6, table)
#   smoke/     everything the trace, timeseries, fault, burst and adversary
#              smoke targets write
#
# — and compares the two trees file by file with wall-clock fields
# (elapsed, elapsed_ms) blanked. Paths only one side wrote go to
# $WORK/only.list ("-" parent, "+" change); every common file is still
# compared. Prints "identical" and exits 0 when the sets match. Otherwise
# it prints every differing file with its first differing line, then how
# many differ (also listed in $WORK/diff.list), or "file sets differ", and
# exits 1. A change that intends a difference quotes that output and says
# why.
#
# usage: identity.sh <parent-rev> [work-dir]     (make identity PARENT=<rev>)
set -eu

PARENT=${1:?usage: identity.sh <parent-rev> [work-dir]}
WORK=${2:-${ARTIFACTS:-artifacts}/identity}
GO="${GO:-go}"
SMOKES="trace-smoke timeseries-smoke fault-smoke burst-smoke adversary-smoke"

rm -rf "$WORK"
mkdir -p "$WORK/parent-src"
WORK=$(cd "$WORK" && pwd)
# The parent's source tree goes again on exit: a second copy of the repo
# under the work dir would be walked by `make loc` and `make lint`.
trap 'rm -rf "$WORK/parent-src"' EXIT
git archive "$PARENT" | tar -x -C "$WORK/parent-src"

# produce <source dir> <output dir>: build, then run the artifact set.
produce() (
    out=$2
    mkdir -p "$out/bin"
    cd "$1"
    "$GO" build -o "$out/bin/" ./cmd/experiment ./cmd/splicetrace
    "$out/bin/experiment" -quick -figure all,churn,burst,adversary,ablation -trace "$out/quick/trace" > "$out/quick/figures.txt"
    "$out/bin/splicetrace" report "$out/quick/trace" -json -o "$out/report.json"
    "$out/bin/splicetrace" timeseries "$out/quick/trace" -csv -o "$out/timeseries.csv"
    "$out/bin/experiment" > "$out/paper.txt"
    # shellcheck disable=SC2086
    make -s $SMOKES GO="$GO" ARTIFACTS="$out/smoke" > "$out/smoke.log" 2>&1 || { cat "$out/smoke.log" >&2; exit 1; }
    rm -rf "$out/bin" "$out/smoke.log"
)

mkdir -p "$WORK/parent/quick" "$WORK/change/quick"
produce "$WORK/parent-src" "$WORK/parent"
produce . "$WORK/change"

# show <file> <line>: that line, cut to 200 characters, or a marker past
# the file's end.
show() {
    if [ "$2" -gt "$(wc -l < "$1")" ]; then
        echo "(end of file)"
    else
        sed -n "${2}p" "$1" | cut -c1-200
    fi
}

# blank <file>: the file with wall-clock fields blanked.
blank() { sed -e 's/"elapsed_ms": *[0-9.]*/"elapsed_ms": 0/' -e 's/elapsed [0-9.]*[a-zµ]*s)/elapsed)/' "$1"; }

(cd "$WORK/parent" && find . -type f | sort) > "$WORK/parent.list"
(cd "$WORK/change" && find . -type f | sort) > "$WORK/change.list"
{
    comm -23 "$WORK/parent.list" "$WORK/change.list" | sed 's/^/- /'
    comm -13 "$WORK/parent.list" "$WORK/change.list" | sed 's/^/+ /'
} > "$WORK/only.list"
comm -12 "$WORK/parent.list" "$WORK/change.list" > "$WORK/common.list"
if [ -s "$WORK/only.list" ]; then
    echo "identity: file sets differ: $(grep -c '^-' "$WORK/only.list" || true) only in the parent," \
        "$(grep -c '^+' "$WORK/only.list" || true) only in the change (all in $WORK/only.list):"
    head -5 "$WORK/only.list"
fi
: > "$WORK/diff.list"
while read -r f; do
    blank "$WORK/parent/$f" > "$WORK/a"
    blank "$WORK/change/$f" > "$WORK/b"
    if ! cmp -s "$WORK/a" "$WORK/b"; then
        echo "$f" >> "$WORK/diff.list"
        # cmp names the first differing line, or the last line of a file
        # that ends where the other goes on, so the difference is the next.
        out=$(cmp "$WORK/a" "$WORK/b" 2>&1) || true
        line=$(echo "$out" | sed -n 's/.*line \([0-9]*\).*/\1/p')
        case $out in *EOF*) line=$((${line:-0} + 1)) ;; esac
        echo "identity: differs: $f line $line"
        echo "  parent: $(show "$WORK/a" "$line")"
        echo "  change: $(show "$WORK/b" "$line")"
    fi
done < "$WORK/common.list"
n=$(wc -l < "$WORK/common.list")
if [ -s "$WORK/diff.list" ]; then
    echo "identity: $(wc -l < "$WORK/diff.list") of $n common artifacts vs $PARENT differ (listed in $WORK/diff.list)"
    exit 1
fi
if [ -s "$WORK/only.list" ]; then
    echo "identity: $n common artifacts vs $PARENT: identical; file sets differ"
    exit 1
fi
echo "identity: $n artifacts vs $PARENT: identical"
