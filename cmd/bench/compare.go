package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictImproved    = "improved"
	verdictWithinBound = "within_bound"
	verdictRegressed   = "regressed"
	verdictUnresolved  = "unresolved" // the spread exceeds the bound
	verdictIdentical   = "identical"  // an exact count that repeated
	verdictNotJudged   = "-"          // a per-layer metric: reported, no bound
)

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	Workload string
	Metric   string
	Unit     string
	A, B     summary
	Delta    float64 // (B − A) ÷ A, signed as measured
	Verdict  string
}

// judge compares a metric's baseline distribution a with b. The change
// is a regression when b's median is worse than a's by more than the
// metric's bound and its absolute floor; where that is not shown and
// either side's spread is wider than the bound, the metric is
// unresolved, not unchanged; an improvement must exceed the baseline's
// own spread.
func judge(d metricDef, a, b summary) (delta float64, verdict string) {
	if a.Median != 0 {
		delta = (b.Median - a.Median) / math.Abs(a.Median)
	}
	switch {
	case d.exact:
		if a.Median == b.Median && a.Q1 == a.Q3 && b.Q1 == b.Q3 {
			return delta, verdictIdentical
		}
		return delta, verdictRegressed
	case d.bound == 0:
		return delta, verdictNotJudged
	}
	worse, abs := delta, b.Median-a.Median
	if d.better == "higher" {
		worse, abs = -delta, -abs
	}
	spread := math.Max(a.spread(), b.spread())
	switch {
	case worse > d.bound && abs > d.floor && worse > spread:
		return delta, verdictRegressed
	case spread > d.bound:
		return delta, verdictUnresolved
	case -worse > a.spread() && -abs > 0:
		return delta, verdictImproved
	}
	return delta, verdictWithinBound
}

// compareResults judges every metric the two files share: end-to-end
// metrics from untraced passes, per-layer metrics from traced ones, and
// each workload's share of failed operations.
func compareResults(a, b resultsFile) []comparison {
	key := func(p passResult) string { return fmt.Sprintf("%s/%v", p.Workload, p.Traced) }
	bPasses := map[string]passResult{}
	for _, p := range b.Passes {
		bPasses[key(p)] = p
	}
	var rows []comparison
	for _, pa := range a.Passes {
		pb, ok := bPasses[key(pa)]
		if !ok {
			continue
		}
		defs := endToEnd
		if pa.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			ma, okA := pa.Metrics[d.name]
			mb, okB := pb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			delta, verdict := judge(d, ma.summary, mb.summary)
			rows = append(rows, comparison{pa.Workload, d.name, d.unit, ma.summary, mb.summary, delta, verdict})
		}
		if !pa.Traced {
			rows = append(rows, failedShare(pa, pb))
		}
	}
	return rows
}

// failedShare is failed ÷ attempted; any increase is a regression.
func failedShare(pa, pb passResult) comparison {
	share := func(p passResult) summary {
		s := float64(p.Failed) / float64(max(p.Attempted, 1))
		return summary{Median: s, Q1: s, Q3: s, N: 1}
	}
	row := comparison{Workload: pa.Workload, Metric: "failed_share", Unit: "ratio", A: share(pa), B: share(pb)}
	row.Delta = row.B.Median - row.A.Median
	switch {
	case row.Delta > 0:
		row.Verdict = verdictRegressed
	case row.Delta < 0:
		row.Verdict = verdictImproved
	default:
		row.Verdict = verdictWithinBound
	}
	return row
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return f, nil
}

// runCompare prints the comparison of two results files and returns the
// number of regressed rows.
func runCompare(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	rows := compareResults(a, b)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tdelta\tverdict")
	regressed := 0
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			regressed++
		}
		if r.Verdict != verdictRegressed && r.Metric != "failed_share" && r.A.Median == 0 && r.B.Median == 0 {
			continue // a per-layer metric the workload does not exercise
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%s\n", r.Workload, r.Metric, r.Unit,
			formatSummary(r.A), formatSummary(r.B), 100*r.Delta, r.Verdict)
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}
	fmt.Fprintf(w, "%d rows, %d regressed\n", len(rows), regressed)
	return regressed, nil
}

func formatSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N)
}
