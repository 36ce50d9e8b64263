package experiment

import (
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/simpeer"
)

// ChurnLevel is one x-axis point of the churn figure: a mean online
// session length before a peer crashes (0 disables churn entirely).
type ChurnLevel struct {
	Name       string
	MeanOnline time.Duration
}

// ChurnLevels returns the default churn axis, stable swarm to heavy
// churn. The means are online-session lengths, so smaller is harsher.
func ChurnLevels() []ChurnLevel {
	return []ChurnLevel{
		{Name: "none", MeanOnline: 0},
		{Name: "low", MeanOnline: 90 * time.Second},
		{Name: "medium", MeanOnline: 45 * time.Second},
		{Name: "high", MeanOnline: 20 * time.Second},
	}
}

// churnMeanOffline is the mean crash-to-rejoin gap for churned peers.
const churnMeanOffline = 8 * time.Second

// churnMod returns the per-cell config hook for one churn level. It
// runs after the cell's seed is set, so the fault schedule derives from
// the cell's own seed — every run sees a different but bit-reproducible
// plan. Only odd-numbered leechers churn; the measured cohort (crashed
// peers are excluded from the run's Summary) observes the swarm-side
// damage — lost sources and re-requests — not its own dead air.
func (p Params) churnMod(lv ChurnLevel) func(*simpeer.SwarmConfig) {
	return func(cfg *simpeer.SwarmConfig) {
		cfg.RetryBackoff = fault.Backoff{
			Base:       200 * time.Millisecond,
			Cap:        2 * time.Second,
			JitterFrac: 0.5,
		}
		if lv.MeanOnline <= 0 {
			return
		}
		var churners []int
		for id := 1; id <= cfg.Leechers; id += 2 {
			churners = append(churners, id)
		}
		cfg.Faults = fault.Churn(cfg.Seed, churners, p.faultHorizon(), lv.MeanOnline, churnMeanOffline)
	}
}

// FigChurn runs the churn experiment: GOP versus 4 s duration splicing,
// each under adaptive and fixed-4 pooling, as peer churn intensifies at
// a fixed 256 kB/s. The measure is combined badness — startup time plus
// total stall time in seconds — since churn damages both ends of a
// viewing session. Not one of the paper's figures; it extends the
// splicing-versus-pooling comparison to the faulted regime.
func (p Params) FigChurn(levels []ChurnLevel) (*FigureResult, error) {
	if len(levels) == 0 {
		levels = ChurnLevels()
	}
	return p.levelFigure("Churn", "Churn: startup + stall seconds under increasing peer churn (256 kB/s)",
		"Churn level", levelNames(levels, func(lv ChurnLevel) string { return lv.Name }),
		splicingByPooling(func(i int) func(*simpeer.SwarmConfig) { return p.churnMod(levels[i]) }))
}
