# bench-verdict: the verdict on a set of alternating parent/change pairs,
# from their medians alone. Each input line is
#
#   <pair> <metric> <parent median> <change median>
#
# (bench-ab.sh writes them to results/medians.txt; odd pairs ran the
# parent first). For each of setup_s, wall_s and cpu_s it prints, as
# information, the median of each side's pair medians (cmd/bench's
# quantiles, position q·(n+1)), the parent's interquartile range, and the
# median Δ of the parent-first and of the change-first pairs apart (an
# order effect shows as the two disagreeing by more than the spread).
#
# The verdict is on wall_s and reads only the pairs' own differences,
# which cancel any drift of the box slower than one pair: d = ln(change /
# parent) per pair. It prints the sign test (wins, d < 0, of the pairs
# with d ≠ 0, and the one-sided binomial p), the Hodges–Lehmann estimate
# of the shift (the median of the Walsh averages (d_i + d_j) / 2, i ≤ j)
# and its one-sided 95 % distribution-free upper bound: the Walsh average
# of rank M + 1 − C, where M = n(n + 1)/2 and C is the largest c with
# P(T ≤ c − 1) ≤ 0.05 under the exact null distribution of the
# signed-rank statistic T, counted here rather than read from a table.
# The last line ends "met" only when that upper bound is below zero: the
# change is faster with 95 % confidence whatever the pairs' distribution,
# as long as it is symmetric about the shift.
#
# usage: awk -f scripts/bench-verdict.awk medians.txt
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
# logPct: a log-ratio as the percent change it stands for.
function logPct(x) { return sprintf("%+.1f%%", 100 * (exp(x) - 1)) }
{
    m = $2; j = ++n[m]; pair[m, j] = $1; p[m, j] = $3; c[m, j] = $4
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
    }

    # The per-pair log-ratios of wall_s.
    for (j = 1; j <= n["wall_s"]; j++) {
        if (p["wall_s", j] <= 0 || c["wall_s", j] <= 0) continue
        d[++nd] = log(c["wall_s", j] / p["wall_s", j])
        if (d[nd] < 0) wins++
        if (d[nd] != 0) signed++
    }
    if (nd == 0) { print "wall_s: no pairs; verdict: not met"; exit }

    # Sign test, one-sided: P(X ≥ wins) for X ~ Binomial(signed, 1/2).
    sp = 0; term = 0.5 ^ signed
    for (k = 0; k <= signed; k++) {
        if (k >= wins) sp += term
        term = term * (signed - k) / (k + 1)
    }

    # Walsh averages, sorted, and their median: the Hodges–Lehmann shift.
    for (i = 1; i <= nd; i++)
        for (j = i; j <= nd; j++) walsh[++nw] = (d[i] + d[j]) / 2
    sort(walsh, nw)
    hl = nw % 2 ? walsh[(nw + 1) / 2] : (walsh[nw / 2] + walsh[nw / 2 + 1]) / 2

    # The exact null distribution of the signed-rank statistic: ways[s] is
    # the number of subsets of the ranks 1..nd summing to s, of 2^nd.
    ways[0] = 1
    for (s = 1; s <= nw; s++) ways[s] = 0
    for (r = 1; r <= nd; r++)
        for (s = nw; s >= r; s--) ways[s] += ways[s - r]
    C = 0; cum = 0
    for (s = 0; s <= nw; s++) {
        cum += ways[s] / 2 ^ nd
        if (cum > 0.05) break
        C = s + 1 # P(T ≤ C − 1) ≤ 0.05
    }
    if (C == 0) {
        upper = "+inf"; met = "not met"
    } else {
        ub = walsh[nw + 1 - C]
        upper = sprintf("%.4f (%s)", ub, logPct(ub))
        met = ub < 0 ? "met" : "not met"
    }
    printf "wall_s log-ratio over %d pairs: sign test %d/%d wins, p = %.4f; Hodges–Lehmann %.4f (%s), one-sided 95%% upper bound %s: %s\n",
        nd, wins, signed, sp, hl, logPct(hl), upper, met
}
