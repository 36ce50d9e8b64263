package simpeer

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// Metrics must be a pure observer, exactly like tracing: the same swarm
// run, with and without a registry attached, produces bit-identical
// results.
func TestMetricsAreInert(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)

	plain := baseConfig(192 * 1024)
	plain.Seed = 11
	plain.LossRate = 0.15
	bare, err := RunSwarm(plain, segs)
	if err != nil {
		t.Fatal(err)
	}

	metered := plain
	reg := trace.NewRegistry()
	metered.Metrics = reg
	metered.MetricsScheme = "4s"
	obs, err := RunSwarm(metered, segs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare, obs) {
		t.Fatalf("results diverge with metrics enabled:\nbare:    %+v\nmetered: %+v", bare, obs)
	}
	snap := reg.Snap()
	if len(snap.Hists) == 0 {
		t.Fatal("registry attached but no histograms recorded")
	}
}

// The QoE histograms must agree with the player-reported metrics: one
// startup observation per started peer, and the per-cause stall counts
// summing to the sample stall totals.
func TestMetricsMatchPlaybackSamples(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 7
	reg := trace.NewRegistry()
	cfg.Metrics = reg
	cfg.MetricsScheme = "4s"
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Fatalf("peer %d did not finish; histogram pairing below assumes completion", s.Peer)
		}
	}

	var startupCount, stallCount, segCount, poolCount int64
	var stallSumUS int64
	for _, h := range reg.Snap().Hists {
		switch {
		case h.Name == "sim_startup_seconds":
			startupCount = h.Count
		case strings.HasPrefix(h.Name, "sim_stall_seconds{"):
			stallCount += h.Count
			stallSumUS += h.Sum
		case h.Name == `sim_segment_download_seconds{scheme="4s"}`:
			segCount = h.Count
		case h.Name == "sim_pool_size_k":
			poolCount = h.Count
		}
	}
	if want := int64(len(measuredPeers(res))); startupCount != want {
		t.Errorf("startup observations = %d, want %d (one per finished peer)", startupCount, want)
	}
	wantStalls, wantStallTime := 0, time.Duration(0)
	for _, s := range measuredPeers(res) {
		wantStalls += s.Metrics.Stalls
		wantStallTime += s.Metrics.TotalStall
	}
	if stallCount != int64(wantStalls) {
		t.Errorf("stall observations = %d, samples report %d", stallCount, wantStalls)
	}
	// Durations agree to microsecond rounding (one rounding per stall).
	if diff := stallSumUS - wantStallTime.Microseconds(); diff > int64(wantStalls) || diff < -int64(wantStalls) {
		t.Errorf("stall seconds sum = %dµs, samples report %dµs", stallSumUS, wantStallTime.Microseconds())
	}
	// Every leecher downloaded every segment once.
	if want := int64(len(measuredPeers(res)) * len(segs)); segCount != want {
		t.Errorf("segment observations = %d, want %d", segCount, want)
	}
	if poolCount == 0 {
		t.Error("no pool-size observations")
	}
}
