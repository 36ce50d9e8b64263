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
# medians and verdicts, then, for each of setup_s, wall_s and cpu_s, the
# median of each side's pair medians with the parent's interquartile
# range, and the median Δ of the parent-first and of the change-first
# pairs apart (an order effect shows as the two disagreeing by more than
# the spread). The last line is the pairs' verdict on wall_s:
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
    awk -v w="$WORKLOAD" -v i="$i" '$1 == w && ($2 == "setup_s" || $2 == "wall_s" || $2 == "cpu_s") { print i, $2, $4, $8 }' \
        "$cmp" >> "$WORK/results/medians.txt"
    i=$((i + 1))
done

# The summaries and the 9-of-10 rule, with cmd/bench's quantiles (position
# q·(n+1)). Each line of medians.txt: <pair> <metric> <parent> <change>.
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
# pct: the change from a to b, in percent; "-" from zero.
function pct(a, b) { return a == 0 ? "-" : sprintf("%+.1f%%", 100 * (b - a) / a) }
# median of the Δ% of the pairs of metric m that ran the parent first
# (odd = 1) or the change first (odd = 0); "-" when there are none.
function orderDelta(m, odd,    k, j, d) {
    for (j = 1; j <= n[m]; j++)
        if (pair[m, j] % 2 == odd && p[m, j] != 0) d[++k] = 100 * (c[m, j] - p[m, j]) / p[m, j]
    if (k == 0) return "-"
    sort(d, k)
    return sprintf("%+.1f%%", quantile(d, k, 0.5))
}
{
    m = $2; j = ++n[m]; pair[m, j] = $1; p[m, j] = $3; c[m, j] = $4
    if (m == "wall_s" && $4 < $3) wins++
}
END {
    split("setup_s wall_s cpu_s", metrics, " ")
    for (x = 1; x <= 3; x++) {
        m = metrics[x]
        if (!n[m]) continue
        parentFirst = orderDelta(m, 1); changeFirst = orderDelta(m, 0)
        for (j = 1; j <= n[m]; j++) { ps[j] = p[m, j]; cs[j] = c[m, j] }
        sort(ps, n[m]); sort(cs, n[m])
        pm = quantile(ps, n[m], 0.5); cm = quantile(cs, n[m], 0.5)
        iqr = quantile(ps, n[m], 0.75) - quantile(ps, n[m], 0.25)
        printf "%s median parent %.4g change %.4g (%s), parent IQR %.4g; median Δ parent-first %s, change-first %s\n",
            m, pm, cm, pct(pm, cm), iqr, parentFirst, changeFirst
        if (m == "wall_s") { wpm = pm; wcm = cm; wiqr = iqr; wn = n[m] }
    }
    met = (wins * 10 >= wn * 9 && wpm - wcm > wiqr) ? "met" : "not met"
    printf "wins %d/%d, Δmedian vs parent IQR: %s\n", wins, wn, met
}' "$WORK/results/medians.txt"
