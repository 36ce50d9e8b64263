package simpeer

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// TestTimeSeriesCoherent proves the telemetry read paths cannot drift:
// replaying a run's events into a fresh recorder reproduces the live
// registry histograms bucket by bucket, on a burst-loss run where
// several stall causes occur, and the windowed series replayed from the
// in-memory log equals the one rebuilt from its JSONL round trip window
// by window. pool_size_k is not compared: fills that return at a full
// pool observe it without emitting an event.
func TestTimeSeriesCoherent(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(96 * 1024)
	cfg.Seed = 3
	cfg.LossRate = 0.005
	cfg.JoinSpread = 2 * time.Second
	var plans []fault.Plan
	for n := 0; n <= cfg.Leechers; n++ {
		plans = append(plans, fault.BurstLoss(n, 5*time.Second, 80*time.Second, geTest))
	}
	cfg.Faults = fault.Merge(plans...)
	reg, buf := trace.NewRegistry(), trace.NewBuffer()
	cfg.Metrics, cfg.MetricsScheme, cfg.Tracer = reg, "4s", trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}

	reg2, ts2 := trace.NewRegistry(), trace.NewTimeSeries(time.Second)
	trace.NewQoE(nil, reg2, "sim", "4s", ts2, cfg.Leechers).Replay(buf.Events())

	qoeHists := func(r *trace.Registry) map[string]trace.HistStat {
		out := map[string]trace.HistStat{}
		for _, h := range r.Snap().Hists {
			if h.Name != "sim_pool_size_k" {
				out[h.Name] = h
			}
		}
		return out
	}
	live, replayed := qoeHists(reg), qoeHists(reg2)
	causes := 0
	for name, h := range live {
		if !reflect.DeepEqual(h, replayed[name]) {
			t.Errorf("%s diverges:\nlive:     %+v\nreplayed: %+v", name, h, replayed[name])
		}
		if strings.HasPrefix(name, "sim_stall_seconds{") && h.Count > 0 {
			causes++
		}
	}
	if len(replayed) != len(live) {
		t.Errorf("replay registered %d QoE histograms, live %d", len(replayed), len(live))
	}
	if causes < 2 {
		t.Errorf("%d stall causes occurred; the run must exercise several", causes)
	}
	for _, name := range []string{"sim_startup_seconds", `sim_segment_download_seconds{scheme="4s"}`, `sim_segment_bytes{scheme="4s"}`} {
		if live[name].Count == 0 {
			t.Errorf("%s recorded nothing live", name)
		}
	}
	memSeries := ts2.Snap()
	for _, s := range memSeries.Series {
		if tsTotal(s) == 0 {
			t.Errorf("series %s recorded nothing; coherence on it is vacuous", s.Name)
		}
	}

	// The series must also survive the JSONL encoding's microsecond
	// resolution and the builder's per-file peer-count inference, which
	// is what splicetrace timeseries reads.
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, buf.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	b := tracereport.NewTimeSeriesBuilder(tracereport.TimeSeriesOptions{Window: time.Second})
	if err := b.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	if derived := b.Snap(); !reflect.DeepEqual(memSeries, derived) {
		t.Errorf("JSONL-derived time series differs from the in-memory replay:\nreplayed: %+v\nderived:  %+v", memSeries, derived)
	}
}

// tsTotal is a series' observation count summed over its windows.
func tsTotal(s trace.TSSeriesStat) int64 {
	var n int64
	for _, w := range s.Windows {
		n += w.Count
	}
	return n
}
