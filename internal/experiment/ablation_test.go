package experiment

import (
	"reflect"
	"testing"

	"p2psplice/internal/core"
)

// TestAblationVariantsAtDefaultScale applies every ablation arm to the
// config the baseline runs at default scale (19 viewers). The baseline arm
// comes first and has no hook; every other arm's hook must change that
// config, because a no-op hook would silently print the baseline. No arm
// changes the swarm size, only the hetero arm overrides per-peer
// bandwidths, and it slows what its label says — half the peers,
// ⌈19/2⌉ = 10, not 5 of a hard-coded 10.
func TestAblationVariantsAtDefaultScale(t *testing.T) {
	p := DefaultParams()
	leechers := p.Leechers
	arms := Ablations()
	if len(arms) == 0 || arms[0].Name != "baseline" || arms[0].Mod != nil {
		t.Fatalf("first arm %+v, want the hookless baseline", arms[0])
	}
	seen := make(map[string]bool)
	for _, a := range arms {
		if seen[a.Name] {
			t.Errorf("duplicate arm name %q", a.Name)
		}
		seen[a.Name] = true
		base := p.swarmConfig(256, core.AdaptivePool{}, p.BaseSeed)
		cfg := p.swarmConfig(256, core.AdaptivePool{}, p.BaseSeed)
		if a.Mod != nil {
			a.Mod(&cfg)
		}
		if changed := !reflect.DeepEqual(cfg, base); changed != (a.Mod != nil) {
			t.Errorf("%s: hook set %v, config changed %v", a.Name, a.Mod != nil, changed)
		}
		if cfg.Leechers != leechers {
			t.Errorf("%s changed the swarm size to %d", a.Name, cfg.Leechers)
		}
		slowed := 0
		for _, bw := range cfg.LeecherBandwidths {
			if bw > 0 && bw < cfg.BandwidthBytesPerSec {
				slowed++
			}
		}
		want := 0
		if a.Name == "hetero" {
			want = (leechers + 1) / 2
		}
		if slowed != want || len(cfg.LeecherBandwidths) > leechers {
			t.Errorf("%s slows %d of %d peers (%d overrides), want %d",
				a.Name, slowed, leechers, len(cfg.LeecherBandwidths), want)
		}
	}
}
