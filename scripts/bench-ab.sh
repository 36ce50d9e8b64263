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
# medians and verdicts, then scripts/bench-verdict.awk reads the pairs'
# medians: for each of setup_s, wall_s and cpu_s the median of each side's
# pair medians with the parent's interquartile range and the median Δ of
# the parent-first and of the change-first pairs apart (information), and
# last the verdict on wall_s from the per-pair log-ratios:
#
#   wall_s log-ratio over N pairs: sign test k/N wins, p = …;
#   Hodges–Lehmann …, one-sided 95% upper bound …: met|not met
#
# (one line), "met" when the upper bound of the shift is below zero. The
# awk file runs on any recorded medians.txt by itself. Takes minutes (each
# pass measures for 15 s), so it is not a CI step. Results files stay
# under WORK.
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

awk -f "$(dirname "$0")/bench-verdict.awk" "$WORK/results/medians.txt"
