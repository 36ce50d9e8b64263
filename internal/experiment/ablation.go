package experiment

import (
	"strconv"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// Ablation is one arm of the ablation figure: a config hook that turns one
// mechanism DESIGN.md calls out on or off against the baseline swarm.
type Ablation struct {
	// Name keys the arm in cell labels and trace artifacts.
	Name string
	// Label is the arm's row in the rendered table.
	Label string
	// Mod changes the baseline config; nil is the baseline itself.
	Mod func(*simpeer.SwarmConfig)
}

// Ablations returns the ablation figure's axis: the baseline, then one arm
// per mechanism.
func Ablations() []Ablation {
	return []Ablation{
		{"baseline", "baseline", nil},
		{"churn", "mean online 45s", func(c *simpeer.SwarmConfig) {
			c.Churn = simpeer.ChurnModel{MeanOnline: 45 * time.Second, MinRemaining: 3}
		}},
		{"estimator", "EWMA B", func(c *simpeer.SwarmConfig) { c.OracleBandwidth = false }},
		{"relay", "store-and-forward", func(c *simpeer.SwarmConfig) { c.DisableRelay = true }},
		{"rarest", "rarest-first", func(c *simpeer.SwarmConfig) { c.Selection = simpeer.SelectRarestFirst }},
		{"cross", "4 cross flows", func(c *simpeer.SwarmConfig) { c.CrossTraffic = 4 }},
		{"varbw", "drops to half mid-clip", func(c *simpeer.SwarmConfig) {
			bw := c.BandwidthBytesPerSec
			for node := 1; node <= c.Leechers; node++ {
				c.Faults = fault.Merge(c.Faults, fault.RateDip(node, 40*time.Second, 40*time.Second, bw/2, bw))
			}
		}},
		{"hetero", "half the peers at 64kB/s", func(c *simpeer.SwarmConfig) {
			half := make([]int64, c.Leechers)
			for i := 0; i < len(half); i += 2 {
				half[i] = 64 * 1024 // every other peer on a half-rate link
			}
			c.LeecherBandwidths = half
		}},
		{"cdn", "CDN assist (1 MB/s)", func(c *simpeer.SwarmConfig) {
			c.CDN = &simpeer.CDNAssist{BandwidthBytesPerSec: 1024 * 1024}
		}},
	}
}

// FigAblation runs the ablations: each arm on 4 s splicing with adaptive
// pooling at 128, 256 and 512 kB/s, reporting stalls, stall seconds
// and startup seconds to one decimal. Arms are the x axis and each
// (measure, bandwidth) pair is a column, "stalls@128". Not one of the
// paper's figures; it exercises the paper's future-work cases (competing
// flows, changing bandwidth) and Section IV's CDN hybrid against the
// baseline.
func (p Params) FigAblation(arms []Ablation) (*FigureResult, error) {
	if len(arms) == 0 {
		arms = Ablations()
	}
	f := figure{
		title:  "Ablations: stalls, stall seconds and startup seconds at each kB/s (4s splicing, adaptive pooling)",
		xLabel: "Arm",
		x:      levelNames(arms, func(a Ablation) string { return a.Label }),
		measures: []measure{
			{"stalls", stallsOf, formatTenths},
			{"stall s", stallSecondsOf, formatTenths},
			{"startup s", startupOf, formatTenths},
		},
	}
	dur4 := splicer.DurationSplicer{Target: 4 * time.Second}
	for _, bw := range []int64{128, 256, 512} {
		f.rows = append(f.rows, row{name: strconv.FormatInt(bw, 10), at: func(i int) (cell, error) {
			return p.cellFor("Ablation/"+arms[i].Name, dur4, bw, core.AdaptivePool{}, arms[i].Mod)
		}})
	}
	return p.run(f)
}
