package experiment

import (
	"strconv"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/splicer"
)

// Fig6AdaptiveSplicing runs the experiment the paper proposes as future work
// ("an adaptive splicing technique will be able to increase the performance
// of P2P video streaming"): instead of one fixed segment duration for every
// deployment, the seeder splices the clip per swarm with
// splicer.OptimalDuration at that sweep point's bandwidth, and the figure
// compares that against the fixed 2 s / 4 s / 8 s splicings across the
// bandwidth sweep.
//
// OptimalDuration picks the smallest duration whose overhead-inflated
// demand fits 60% of the link (50 ms request lag), and below break-even the
// minimum-demand duration of at most 8 s. So the target falls as bandwidth
// rises: 8 s at 128 kB/s, where streaming is not sustainable and overhead
// dominates, and 1 s from 512 kB/s up, where startup does.
func (p Params) Fig6AdaptiveSplicing(bandwidths []int64) (*FigureResult, error) {
	if len(bandwidths) == 0 {
		bandwidths = Fig2Bandwidths
	}
	f := bandwidthFigure("Figure 6 (extension): adaptive splicing vs fixed durations", bandwidths,
		measure{of: combinedBadness, format: formatTenths})
	for _, sp := range durationSet() {
		f.rows = append(f.rows, p.sweepRow(sp.Name(), "Figure 6/"+sp.Name(), sp, core.AdaptivePool{}, nil, bandwidths))
	}

	// Adaptive splicing: the segment duration is chosen per bandwidth with
	// the OptimalDuration algorithm (the smallest duration whose
	// overhead-inflated demand fits the link), so each x index gets its
	// own splicing.
	v, err := p.Video()
	if err != nil {
		return nil, err
	}
	targets := make([]time.Duration, len(bandwidths))
	targetNames := make([]string, len(bandwidths))
	for i, bw := range bandwidths {
		// Safety 0.6: a swarm peer's link also carries relaying and
		// pipeline-chain overheads that a point-to-point demand model does
		// not see, so leave substantial headroom.
		targets[i], err = splicer.OptimalDuration(v, bw*1024, 50*time.Millisecond, 0.6)
		if err != nil {
			return nil, err
		}
		targetNames[i] = targets[i].String()
	}
	f.rows = append(f.rows, row{name: "adaptive", at: func(i int) (cell, error) {
		return p.cellFor("Figure 6/adaptive@"+strconv.FormatInt(bandwidths[i], 10),
			splicer.DurationSplicer{Target: targets[i]}, bandwidths[i], core.AdaptivePool{}, nil)
	}})

	res, err := p.run(f)
	if err != nil {
		return nil, err
	}
	res.Figure.AddSeries("adaptive target", targetNames)
	return res, nil
}

// combinedBadness is the figure's y-value: startup plus total stall time in
// seconds — the viewer-visible waiting a splicing causes. (Stall count alone
// hides the granularity trade-off; see EXPERIMENTS.md.)
func combinedBadness(pt Point) float64 { return pt.StartupSecs + pt.StallSeconds }
