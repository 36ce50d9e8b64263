package main

import (
	"strings"
	"testing"

	"p2psplice/internal/experiment"
	"p2psplice/internal/simpeer"
)

func keysOf(figs []experiment.Figure) string {
	keys := make([]string, len(figs))
	for i, f := range figs {
		keys[i] = f.Key
	}
	return strings.Join(keys, ",")
}

// TestSelectFigures: every registry key is dispatchable from -figure,
// "all" is the paper set, lists keep the order given, and an unknown key
// is an error that names it.
func TestSelectFigures(t *testing.T) {
	for _, f := range experiment.Figures {
		got, err := selectFigures(f.Key)
		if err != nil || keysOf(got) != f.Key {
			t.Errorf("selectFigures(%q) = %s, %v", f.Key, keysOf(got), err)
		}
	}
	for spec, want := range map[string]string{
		"all":           "2,3,4,5,6,table",
		"all,churn":     "2,3,4,5,6,table,churn",
		"adversary,2":   "adversary,2",
		"burst,all":     "burst,2,3,4,5,6,table",
		"table,table,3": "table,table,3",
	} {
		got, err := selectFigures(spec)
		if err != nil || keysOf(got) != want {
			t.Errorf("selectFigures(%q) = %s, %v; want %s", spec, keysOf(got), err, want)
		}
	}
	for _, spec := range []string{"", "7", "2,", "all,nope"} {
		if got, err := selectFigures(spec); err == nil {
			t.Errorf("selectFigures(%q) = %s, want an error", spec, keysOf(got))
		}
	}
	if _, err := selectFigures("2,nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown key not named in error: %v", err)
	}
}

// TestAblationVariantsAtDefaultScale applies every ablation arm to a
// default-scale config (19 viewers): only the hetero arm overrides
// per-peer bandwidths, and it slows what its label says — half the
// peers, ⌈19/2⌉ = 10, not 5 of a hard-coded 10.
func TestAblationVariantsAtDefaultScale(t *testing.T) {
	const leechers = 19
	for _, a := range ablations {
		for _, v := range a.variants {
			cfg := simpeer.SwarmConfig{Leechers: leechers, BandwidthBytesPerSec: 256 * 1024}
			if v.mod != nil {
				v.mod(&cfg)
			}
			if cfg.Leechers != leechers {
				t.Errorf("%s/%s changed the swarm size to %d", a.name, v.label, cfg.Leechers)
			}
			slowed := 0
			for _, bw := range cfg.LeecherBandwidths {
				if bw > 0 && bw < cfg.BandwidthBytesPerSec {
					slowed++
				}
			}
			want := 0
			if a.name == "hetero" && v.mod != nil {
				want = (leechers + 1) / 2
			}
			if slowed != want || len(cfg.LeecherBandwidths) > leechers {
				t.Errorf("%s/%s slows %d of %d peers (%d overrides), want %d",
					a.name, v.label, slowed, leechers, len(cfg.LeecherBandwidths), want)
			}
		}
	}
}
