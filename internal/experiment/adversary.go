package experiment

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/reputation"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// AdversaryLevel is one x-axis point of the adversary figure: the
// fraction of leechers that are intermittent polluters.
type AdversaryLevel struct {
	Name string
	// PolluterPct is the share of leechers turned into polluters,
	// in percent of the leecher count (rounded down, at least one
	// when non-zero).
	PolluterPct float64
}

// AdversaryLevels returns the default adversary axis: an honest swarm,
// then 10/25/50% of the leechers polluting.
func AdversaryLevels() []AdversaryLevel {
	return []AdversaryLevel{
		{Name: "honest", PolluterPct: 0},
		{Name: "10% polluters", PolluterPct: 10},
		{Name: "25% polluters", PolluterPct: 25},
		{Name: "50% polluters", PolluterPct: 50},
	}
}

// adversaryPollutePct is each polluter's per-attempt pollution rate. The
// draws are pure hashes of (seed, src, dst, seg, attempt), so an honest
// retry eventually lands even from a polluting source.
const adversaryPollutePct = 60

// polluterNodes spreads n polluters across the leecher IDs 1..leechers
// evenly, so the adversaries are interleaved with honest viewers rather
// than clustered at the low IDs that join first.
func polluterNodes(leechers int, pct float64) []int {
	n := int(float64(leechers) * pct / 100)
	if pct > 0 && n == 0 {
		n = 1
	}
	if n > leechers {
		n = leechers
	}
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = 1 + i*leechers/n
	}
	return nodes
}

// adversaryMod returns the per-cell config hook for one level of one
// series: it installs the polluter plans for the level's adversary
// fraction and, when rep is non-nil, the reputation/quarantine config.
// Pollution draws hash the run's seed, so cells stay bit-reproducible
// and byte-identical across -workers values.
func (p Params) adversaryMod(lv AdversaryLevel, rep *reputation.Config) func(*simpeer.SwarmConfig) {
	return func(cfg *simpeer.SwarmConfig) {
		cfg.Reputation = rep
		if lv.PolluterPct <= 0 {
			return
		}
		horizon := p.faultHorizon()
		nodes := polluterNodes(cfg.Leechers, lv.PolluterPct)
		plans := make([]fault.Plan, 0, len(nodes))
		for _, node := range nodes {
			plans = append(plans, fault.Polluter(node, 0, horizon, adversaryPollutePct))
		}
		cfg.Faults = fault.Merge(plans...)
	}
}

// FigAdversary runs the adversarial-peer experiment: GOP versus 4 s
// duration splicing, each with the reputation/quarantine subsystem on
// and off, as a growing fraction of the leechers becomes intermittent
// polluters (60% per-attempt pollution), at a fixed 256 kB/s. The
// measure is combined badness — startup time plus total stall seconds —
// over the honest viewers only (adversarial nodes are excluded from the
// run's Summary). Not one of the paper's figures; it probes how much of
// the splicing schemes' QoE survives pollution, and how much the
// reputation subsystem buys back.
func (p Params) FigAdversary(levels []AdversaryLevel) (*FigureResult, error) {
	if len(levels) == 0 {
		levels = AdversaryLevels()
	}
	repOn := reputation.Default()
	withRep := func(rep *reputation.Config) func(int) func(*simpeer.SwarmConfig) {
		return func(i int) func(*simpeer.SwarmConfig) { return p.adversaryMod(levels[i], rep) }
	}
	gop, dur4 := splicer.GOPSplicer{}, splicer.DurationSplicer{Target: 4 * time.Second}
	return p.levelFigure("Adversary",
		"Adversary: honest-viewer startup + stall seconds vs polluter fraction (256 kB/s)",
		"Adversaries", levelNames(levels, func(lv AdversaryLevel) string { return lv.Name }),
		[]levelSeries{
			{"gop rep-on", gop, core.AdaptivePool{}, withRep(&repOn)},
			{"gop rep-off", gop, core.AdaptivePool{}, withRep(nil)},
			{"4s rep-on", dur4, core.AdaptivePool{}, withRep(&repOn)},
			{"4s rep-off", dur4, core.AdaptivePool{}, withRep(nil)},
		})
}
