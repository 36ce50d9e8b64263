package experiment

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// Default sweep axes, matching the bandwidths the paper's figures label.
var (
	// Fig2Bandwidths covers the splicing sweeps (Figures 2 and 3).
	Fig2Bandwidths = []int64{128, 256, 512, 768, 1024}
	// Fig4Bandwidths matches Figure 4's axis labels.
	Fig4Bandwidths = []int64{128, 256, 512, 1024}
	// Fig5Bandwidths matches Figure 5's axis labels.
	Fig5Bandwidths = []int64{128, 256, 512, 768}
)

// SplicingSet returns the paper's four splicing configurations.
func SplicingSet() []splicer.Splicer {
	return []splicer.Splicer{
		splicer.GOPSplicer{},
		splicer.DurationSplicer{Target: 2 * time.Second},
		splicer.DurationSplicer{Target: 4 * time.Second},
		splicer.DurationSplicer{Target: 8 * time.Second},
	}
}

// durationSet is SplicingSet without GOP splicing: the fixed 2/4/8 s
// durations Figures 4 and 6 compare.
func durationSet() []splicer.Splicer { return SplicingSet()[1:] }

func bandwidthLabels(bws []int64) []string {
	out := make([]string, len(bws))
	for i, b := range bws {
		out[i] = strconv.FormatInt(b, 10)
	}
	return out
}

// Figure is one entry of the figure registry.
type Figure struct {
	// Key selects the figure (cmd/experiment -figure) and names its CSV
	// and JSON output.
	Key string
	// Name is the display name used in diagnostics.
	Name string
	// Paper marks the default set: the paper's evaluation, the Section II
	// table, and the Figure 6 experiment its conclusion proposes.
	Paper bool
	// Run regenerates the figure on its default axis.
	Run func(Params) (*FigureResult, error)
}

// Figures is the ordered registry of every figure this package can
// regenerate, and the only list of them: the CLI's dispatch and help, the
// golden and parallel-equivalence tests and the smoke targets all range
// over it. Adding a figure is one entry here plus the function behind it.
var Figures = []Figure{
	{"2", "Figure 2", true, func(p Params) (*FigureResult, error) { return p.Fig2Stalls(nil) }},
	{"3", "Figure 3", true, func(p Params) (*FigureResult, error) { return p.Fig3StallDuration(nil) }},
	{"4", "Figure 4", true, func(p Params) (*FigureResult, error) { return p.Fig4Startup(nil) }},
	{"5", "Figure 5", true, func(p Params) (*FigureResult, error) { return p.Fig5Pooling(nil) }},
	{"6", "Figure 6 (extension)", true, func(p Params) (*FigureResult, error) { return p.Fig6AdaptiveSplicing(nil) }},
	{"table", "Splicing table", true, Params.SpliceOverheadTable},
	{"churn", "Churn figure (extension)", false, func(p Params) (*FigureResult, error) { return p.FigChurn(nil) }},
	{"burst", "Burst figure (extension)", false, func(p Params) (*FigureResult, error) { return p.FigBurst(nil) }},
	{"adversary", "Adversary figure (extension)", false, func(p Params) (*FigureResult, error) { return p.FigAdversary(nil) }},
	{"ablation", "Ablation figure (extension)", false, func(p Params) (*FigureResult, error) { return p.FigAblation(nil) }},
}

// bandwidthFigure starts a one-measure figure over a bandwidth axis.
func bandwidthFigure(title string, bandwidths []int64, m measure) figure {
	return figure{
		title:    title,
		xLabel:   "Available Bandwidth (kB/s)",
		x:        bandwidthLabels(bandwidths),
		measures: []measure{m},
	}
}

// sweepRow is a series that holds one splicing, policy and config hook
// fixed along a bandwidth axis. label attributes any cell failure
// ("Figure 2/gop").
func (p Params) sweepRow(name, label string, sp splicer.Splicer, policy core.Policy,
	mod func(*simpeer.SwarmConfig), bandwidths []int64) row {
	return row{name: name, at: func(i int) (cell, error) {
		return p.cellFor(label, sp, bandwidths[i], policy, mod)
	}}
}

// formatCount renders a stall count rounded to the nearest integer, as
// the paper's figures do.
func formatCount(v float64) string { return strconv.Itoa(int(v + 0.5)) }

// formatTenths renders a value to one decimal.
func formatTenths(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// formatSeconds renders a seconds value compactly for tables.
func formatSeconds(s float64) string {
	switch {
	case math.Abs(s) < 1e-9:
		// Values this close to zero are rounding residue from float
		// accumulation; render them as an exact zero.
		return "0"
	case s < 10:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.0f", s)
	}
}

// The Point fields the figures plot.
func stallsOf(pt Point) float64       { return pt.Stalls }
func stallSecondsOf(pt Point) float64 { return pt.StallSeconds }
func startupOf(pt Point) float64      { return pt.StartupSecs }

// splicingFigure is Figures 2 and 3: the four splicings under adaptive
// pooling, differing only in the plotted measure.
func (p Params) splicingFigure(name, title string, bandwidths []int64, m measure) (*FigureResult, error) {
	if len(bandwidths) == 0 {
		bandwidths = Fig2Bandwidths
	}
	f := bandwidthFigure(title, bandwidths, m)
	for _, sp := range SplicingSet() {
		series := sp.Name()
		if sp.Kind() == splicer.KindGOP {
			series = "gop"
		}
		f.rows = append(f.rows, p.sweepRow(series, name+"/"+series, sp, core.AdaptivePool{}, nil, bandwidths))
	}
	return p.run(f)
}

// Fig2Stalls reproduces Figure 2: total number of stalls for GOP and 2/4/8 s
// duration splicing across the bandwidth sweep (50 ms peer latency, 5% loss,
// adaptive pooling, sequential viewing).
func (p Params) Fig2Stalls(bandwidths []int64) (*FigureResult, error) {
	return p.splicingFigure("Figure 2", "Figure 2: Total number of stalls for different bandwidths",
		bandwidths, measure{of: stallsOf, format: formatCount})
}

// Fig3StallDuration reproduces Figure 3: total stall duration (seconds) for
// the same sweep as Figure 2.
func (p Params) Fig3StallDuration(bandwidths []int64) (*FigureResult, error) {
	return p.splicingFigure("Figure 3", "Figure 3: Total stall duration for different bandwidths",
		bandwidths, measure{of: stallSecondsOf, format: formatSeconds})
}

// Fig4Startup reproduces Figure 4: startup time for 2/4/8 s segments with
// the seeder 500 ms away (475 ms access delay). The paper specifies 5% loss
// only for the Figure 2/3 sweep; with a 1 s seeder RTT a loss-capped TCP
// model would pin startup at the Mathis bound and erase the bandwidth axis,
// so this experiment runs loss-free (see EXPERIMENTS.md).
func (p Params) Fig4Startup(bandwidths []int64) (*FigureResult, error) {
	if len(bandwidths) == 0 {
		bandwidths = Fig4Bandwidths
	}
	f := bandwidthFigure("Figure 4: Startup time for different bandwidths", bandwidths,
		measure{of: startupOf, format: formatSeconds})
	farSeeder := func(cfg *simpeer.SwarmConfig) {
		cfg.SeederAccessDelay = 475 * time.Millisecond
		cfg.LossRate = 0
	}
	for _, sp := range durationSet() {
		r := p.sweepRow(sp.Name(), "Figure 4/"+sp.Name(), sp, core.AdaptivePool{}, farSeeder, bandwidths)
		r.header = sp.Name() + " segment"
		f.rows = append(f.rows, r)
	}
	return p.run(f)
}

// PolicySet returns Figure 5's download policies.
func PolicySet() []core.Policy {
	return []core.Policy{
		core.AdaptivePool{},
		core.FixedPool{K: 2},
		core.FixedPool{K: 4},
		core.FixedPool{K: 8},
	}
}

// Fig5Pooling reproduces Figure 5: total number of stalls for adaptive
// pooling versus fixed pool sizes of 2, 4 and 8, on 4-second segments.
func (p Params) Fig5Pooling(bandwidths []int64) (*FigureResult, error) {
	if len(bandwidths) == 0 {
		bandwidths = Fig5Bandwidths
	}
	f := bandwidthFigure("Figure 5: Total number of stalls for different pool sizes", bandwidths,
		measure{of: stallsOf, format: formatCount})
	for _, pol := range PolicySet() {
		r := p.sweepRow(pol.Name(), "Figure 5/"+pol.Name(), splicer.DurationSplicer{Target: 4 * time.Second},
			pol, nil, bandwidths)
		if pol.Name() == "adaptive" {
			r.header = "adaptive pooling"
		}
		f.rows = append(f.rows, r)
	}
	return p.run(f)
}

// levelBandwidthKB fixes the access bandwidth of the extension figures
// (churn, burst, adversary): the axis under study is a fault or adversary
// level, not bandwidth.
const levelBandwidthKB = 256

// levelSeries is one series of a level figure: a splicing and a policy
// under a per-level config hook.
type levelSeries struct {
	name   string
	sp     splicer.Splicer
	policy core.Policy
	// mod returns the config hook for x index level. It runs after the
	// cell's seed is set, so fault plans derive from the cell's own seed.
	mod func(level int) func(*simpeer.SwarmConfig)
}

// splicingByPooling is the series table the churn and burst figures
// share: GOP versus 4 s duration splicing, each under adaptive and
// fixed-4 pooling.
func splicingByPooling(mod func(level int) func(*simpeer.SwarmConfig)) []levelSeries {
	gop, dur4 := splicer.GOPSplicer{}, splicer.DurationSplicer{Target: 4 * time.Second}
	return []levelSeries{
		{"gop adaptive", gop, core.AdaptivePool{}, mod},
		{"gop fixed-4", gop, core.FixedPool{K: 4}, mod},
		{"4s adaptive", dur4, core.AdaptivePool{}, mod},
		{"4s fixed-4", dur4, core.FixedPool{K: 4}, mod},
	}
}

// levelFigure runs an extension figure: series over named levels at
// levelBandwidthKB, measuring combined badness. name prefixes the cell
// labels ("Churn/gop adaptive/low").
func (p Params) levelFigure(name, title, xLabel string, levels []string,
	series []levelSeries) (*FigureResult, error) {
	f := figure{title: title, xLabel: xLabel, x: levels,
		measures: []measure{{of: combinedBadness, format: formatSeconds}}}
	for _, s := range series {
		f.rows = append(f.rows, row{name: s.name, at: func(i int) (cell, error) {
			return p.cellFor(name+"/"+s.name+"/"+levels[i], s.sp, levelBandwidthKB, s.policy, s.mod(i))
		}})
	}
	return p.run(f)
}

// levelNames extracts the x-axis labels of a level axis.
func levelNames[L any](levels []L, name func(L) string) []string {
	out := make([]string, len(levels))
	for i, lv := range levels {
		out[i] = name(lv)
	}
	return out
}

// faultHorizon bounds the fault plans of the extension figures: long
// enough to cover any run of the clip, stalls included.
func (p Params) faultHorizon() time.Duration { return 2*p.ClipDuration + 30*time.Second }

// SpliceOverheadTable summarizes Section II's byte-overhead comparison: per
// technique, segment counts, total bytes, overhead ratio and size spread.
// (The paper discusses this in prose; the table makes it concrete.)
func (p Params) SpliceOverheadTable() (*FigureResult, error) {
	v, err := p.Video()
	if err != nil {
		return nil, err
	}
	fig := Table{
		Title:   "Section II: splicing technique comparison",
		XLabel:  "technique",
		XValues: []string{},
	}
	counts := []string{}
	totals := []string{}
	overheads := []string{}
	spreads := []string{}
	minDurs := []string{}
	maxDurs := []string{}
	res := &FigureResult{Values: make(map[string][]float64)}
	for _, sp := range SplicingSet() {
		segs, err := sp.Splice(v)
		if err != nil {
			return nil, err
		}
		st := splicer.ComputeStats(segs)
		fig.XValues = append(fig.XValues, sp.Name())
		counts = append(counts, strconv.Itoa(st.Count))
		totals = append(totals, strconv.FormatInt(st.TotalBytes/1024, 10))
		overheads = append(overheads, fmt.Sprintf("%.1f%%", 100*st.OverheadRatio()))
		spreads = append(spreads, fmt.Sprintf("%.1fx", float64(st.MaxBytes)/float64(st.MinBytes)))
		minDurs = append(minDurs, fmt.Sprintf("%.2fs", st.MinDuration.Seconds()))
		maxDurs = append(maxDurs, fmt.Sprintf("%.2fs", st.MaxDuration.Seconds()))
		res.Values[sp.Name()] = []float64{100 * st.OverheadRatio()}
	}
	fig.AddSeries("segments", counts)
	fig.AddSeries("total kB", totals)
	fig.AddSeries("overhead", overheads)
	fig.AddSeries("max/min size", spreads)
	fig.AddSeries("min dur", minDurs)
	fig.AddSeries("max dur", maxDurs)
	res.Figure = fig
	return res, nil
}
