#!/bin/sh
# bench-ab: the alternating pairs a perf claim rests on, in one command.
# Extracts PARENT (a `git archive`, so no network and nothing registered in
# .git to clean up) and runs PAIRS pairs of
#
#   bash cmd/bench/run.sh -workload WORKLOAD -trace 0 -seed SEED
#
# one on the parent and one on the working tree as it stands, alternating
# which side goes first (odd pairs parent first, even pairs change first).
# Each side builds its own cmd/bench from its own checkout. Every pair is
# judged by the change's `-compare`; the script prints each pair's
# medians and verdicts, then the pairs' verdict on wall_s in one
# last line:
#
#   wins k/N, Δmedian vs parent IQR: met|not met
#
# where a win is a pair whose change median is lower, and "met" means at
# least nine in ten pairs are wins and the median of the change's pair
# medians is below the parent's by more than the interquartile range of
# the parent's pair medians. Takes minutes (each pass measures for 15 s),
# so it is not a CI step. Results files stay under WORK.
#
# usage: bench-ab.sh <parent-rev> <workload> [pairs] [seed] [work-dir]
#        (make bench-ab PARENT=<rev> WORKLOAD=<w> [PAIRS=10] [SEED=1])
set -eu

PARENT=${1:?usage: bench-ab.sh <parent-rev> <workload> [pairs] [seed] [work-dir]}
WORKLOAD=${2:?usage: bench-ab.sh <parent-rev> <workload> [pairs] [seed] [work-dir]}
PAIRS=${3:-10}
SEED=${4:-1}
WORK=${5:-${ARTIFACTS:-artifacts}/bench-ab}

rm -rf "$WORK"
mkdir -p "$WORK/parent-src" "$WORK/results"
WORK=$(cd "$WORK" && pwd)
# The parent's tree goes again on exit: a second copy of the repo under the
# work dir would be walked by `make loc` and `make lint`.
trap 'rm -rf "$WORK/parent-src"' EXIT
git archive "$PARENT" | tar -x -C "$WORK/parent-src"

# pass <side> <pair>: one untraced pass of the workload on that side.
pass() {
    case $1 in
    parent) root="$WORK/parent-src" ;;
    change) root=. ;;
    esac
    out="$WORK/results/$1.$2.json"
    bash "$root/cmd/bench/run.sh" -workload "$WORKLOAD" -trace 0 -seed "$SEED" -out "$out" \
        > "$WORK/results/$1.$2.log" 2>&1 || { echo "bench-ab: $1 pass $2 failed:"; tail -n 5 "$WORK/results/$1.$2.log"; exit 1; }
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        pass parent "$i"
        pass change "$i"
    else
        pass change "$i"
        pass parent "$i"
    fi
    cmp="$WORK/results/compare.$i.txt"
    ./.bench_build/bench -compare "$WORK/results/parent.$i.json" "$WORK/results/change.$i.json" > "$cmp" || true
    # Each row: <metric> <parent median> -> <change median> (<delta> <verdict>).
    awk -v w="$WORKLOAD" -v i="$i" 'BEGIN { printf "pair %d:", i }
        $1 == w { printf " %s %s -> %s (%s %s);", $2, $4, $8, $12, $13 }
        END { print "" }' "$cmp"
    awk -v w="$WORKLOAD" '$1 == w && $2 == "wall_s" { print $4, $8 }' "$cmp" >> "$WORK/results/medians.txt"
    i=$((i + 1))
done

# The 9-of-10 rule, with cmd/bench's quantiles (position q·(n+1)).
awk '
function quantile(a, n, q,    pos, lo) {
    if (n == 1) return a[1]
    pos = q * (n + 1)
    if (pos <= 1) return a[1]
    if (pos >= n) return a[n]
    lo = int(pos)
    return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
{ n++; p[n] = $1; c[n] = $2; if ($2 < $1) wins++ }
END {
    sort(p, n); sort(c, n)
    pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
    iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
    met = (wins * 10 >= n * 9 && pm - cm > iqr) ? "met" : "not met"
    printf "wall_s median parent %.4g change %.4g (%+.1f%%), parent IQR %.4g\n", pm, cm, 100 * (cm - pm) / pm, iqr
    printf "wins %d/%d, Δmedian vs parent IQR: %s\n", wins, n, met
}' "$WORK/results/medians.txt"
