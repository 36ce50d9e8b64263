package main

import (
	"math"
	"sort"

	"p2psplice/internal/trace"
)

// summary is one metric's distribution over the repetitions of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the noise floor the results file records per metric: the
// distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// summarize returns the median and quartiles of vals. Quartiles use the
// exclusive method (position q·(n+1), clamped), the one Python's
// statistics.quantiles(n=4) uses, so a spread computed here equals the
// one the acceptance procedure computes from the same samples.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates the q-quantile of sorted at position q·(n+1).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1 // zero-based
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 { return summarize(vals).Median }

// supportedPercentile returns the highest percentile not above want
// that still has at least ten of the n samples beyond it, or ok=false
// when not even the median does (n < 20).
func supportedPercentile(n int64, want float64) (p float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	return math.Min(want, 1-10/float64(n)), true
}

// histQuantileMS reads a quantile off a registry histogram that records
// seconds, in milliseconds, honouring the ten-samples-beyond rule: the
// percentile is lowered until it is supported, and the result is 0 when
// the histogram is too small to support any.
func histQuantileMS(h trace.HistStat, want float64) float64 {
	p, ok := supportedPercentile(h.Count, want)
	if !ok {
		return 0
	}
	return h.Quantile(p) * 1e3
}

// histMedianUpper returns the upper bound of the power-of-two bucket
// that holds the histogram's median: exact for small integer
// observations such as pool sizes 1, 2, 4 and 8, where interpolating
// inside a bucket would invent fractions.
func histMedianUpper(h trace.HistStat) float64 {
	var cum int64
	for i, c := range h.Counts[:trace.HistBuckets] {
		if cum += c; c > 0 && 2*cum >= h.Count {
			return h.UpperScaled(i)
		}
	}
	return 0
}

// mergeHists adds up every histogram of snap whose family name (the
// part before any inline label) is family.
func mergeHists(snap trace.RegistrySnapshot, family string) trace.HistStat {
	var out trace.HistStat
	for _, h := range snap.Hists {
		if baseName(h.Name) != family {
			continue
		}
		out.Name, out.Scale = family, h.Scale
		out.Count += h.Count
		out.Sum += h.Sum
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
	}
	return out
}

func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// counterValue returns the named counter of snap, 0 when absent.
func counterValue(snap trace.RegistrySnapshot, name string) int64 {
	for _, s := range snap.Stats {
		if s.Name == name && s.Kind == "counter" {
			return s.Value
		}
	}
	return 0
}
