package experiment

import (
	"p2psplice/internal/fault"
	"p2psplice/internal/simpeer"
)

// BurstLevel is one x-axis point of the burst figure: an impairment mix
// applied at a fixed average loss rate.
type BurstLevel struct {
	Name string
	// GE, when non-nil, replaces i.i.d. loss with a Gilbert–Elliott
	// burst model on every node for the whole run.
	GE *fault.GEModel
	// CorruptPct additionally opens a segment-corruption window at that
	// discard percentage on every leecher.
	CorruptPct float64
}

// burstGE is the default burst model: stationary bad fraction
// p13/(p13+p31) = 1/7, so the long-run average loss rate is
// 0.005·6/7 + 0.32·1/7 ≈ 5.0% — the same mean as the baseline i.i.d.
// 5%, concentrated into ~1.7 s bursts roughly every 10 s.
var burstGE = fault.GEModel{PGood: 0.005, PBad: 0.32, P13: 0.1, P31: 0.6}

// BurstLevels returns the default impairment axis. The first level is
// the paper's i.i.d. 5% loss; the others hold the average loss rate at
// 5% while correlating it, which is what real access links do.
func BurstLevels() []BurstLevel {
	ge := burstGE
	return []BurstLevel{
		{Name: "iid", GE: nil},
		{Name: "burst", GE: &ge},
		{Name: "burst+corrupt", GE: &ge, CorruptPct: 10},
	}
}

// burstMod returns the per-cell config hook for one impairment level.
// It runs after the cell's seed is set; the GE chains then draw their
// sojourn times from the run's own engine RNG and the corruption draws
// from pure hashes of the run's seed, so every cell stays
// bit-reproducible and byte-identical across -workers values.
func (p Params) burstMod(lv BurstLevel) func(*simpeer.SwarmConfig) {
	return func(cfg *simpeer.SwarmConfig) {
		if lv.GE == nil {
			return
		}
		// The GE model shadows the per-node i.i.d. loss while installed;
		// setting the baseline to the good-state rate keeps the brief
		// pre/post-window edges consistent with the good state.
		cfg.LossRate = lv.GE.PGood
		horizon := p.faultHorizon()
		plans := make([]fault.Plan, 0, 2*cfg.Leechers+1)
		for node := 0; node <= cfg.Leechers; node++ {
			plans = append(plans, fault.BurstLoss(node, 0, horizon, *lv.GE))
		}
		if lv.CorruptPct > 0 {
			for node := 1; node <= cfg.Leechers; node++ {
				plans = append(plans, fault.Corruption(node, 0, horizon, lv.CorruptPct))
			}
		}
		cfg.Faults = fault.Merge(plans...)
	}
}

// FigBurst runs the correlated-impairment experiment: GOP versus 4 s
// duration splicing, each under adaptive and fixed-4 pooling, as the
// same 5% average loss rate is progressively correlated (bursts) and
// compounded with segment corruption, at a fixed 256 kB/s. The measure
// is combined badness — startup time plus total stall seconds. Not one
// of the paper's figures; it probes whether the scheme ranking measured
// under i.i.d. loss survives the correlated loss of real access links.
func (p Params) FigBurst(levels []BurstLevel) (*FigureResult, error) {
	if len(levels) == 0 {
		levels = BurstLevels()
	}
	return p.levelFigure("Burst", "Burst: startup + stall seconds as 5% average loss correlates (256 kB/s)",
		"Impairment", levelNames(levels, func(lv BurstLevel) string { return lv.Name }),
		splicingByPooling(func(i int) func(*simpeer.SwarmConfig) { return p.burstMod(levels[i]) }))
}
