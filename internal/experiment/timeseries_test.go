package experiment

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

// TestTimeSeriesInert proves the windowed telemetry layer is a pure
// observer at the figure level: the same sweep, with and without a
// TimeSeries attached, produces float-bit-identical figure values —
// the time-dimension twin of TestMetricsAreInert.
func TestTimeSeriesInert(t *testing.T) {
	bws := []int64{128, 512}

	bare := tracedParams()
	plain, err := bare.Fig2Stalls(bws)
	if err != nil {
		t.Fatal(err)
	}

	timed := tracedParams()
	ts := trace.NewTimeSeries(trace.TimeSeriesConfig{Window: time.Second, MaxWindows: 512})
	timed.Series = ts
	got, err := timed.Fig2Stalls(bws)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "Fig2Stalls with Series", plain.Values, got.Values)

	// The sweep populated every emulation series.
	snap := ts.Snap()
	byName := map[string]trace.TSSeriesStat{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	for _, name := range []string{
		trace.TSBufferOccupancyUS,
		trace.TSPoolTargetK,
		trace.TSInflightFlows,
		trace.TSSegmentsCompleted,
	} {
		if s, ok := byName[name]; !ok || tsTotal(s) == 0 {
			t.Errorf("series %s has no observations across the sweep (present=%v)", name, ok)
		}
	}
	// Stall series exist even if this sweep happens to stall rarely.
	if _, ok := byName[trace.TSStalledPeers]; !ok {
		t.Errorf("series %s not registered", trace.TSStalledPeers)
	}
	if _, ok := byName[trace.TSStallFractionPermille]; !ok {
		t.Errorf("series %s not registered", trace.TSStallFractionPermille)
	}
}

// TestTimeSeriesIdenticalAcrossWorkers proves the shared TimeSeries
// accumulates bit-identically whatever the worker count — the windows
// are exact integer aggregates, so parallel cell execution cannot
// perturb them. The CSV render is compared too: one read path feeds
// every export, so byte-level stability follows snapshot equality.
func TestTimeSeriesIdenticalAcrossWorkers(t *testing.T) {
	snaps := make([]trace.TSSnapshot, 0, 2)
	for _, workers := range []int{1, 2} {
		p := tracedParams()
		p.Workers = workers
		ts := trace.NewTimeSeries(trace.TimeSeriesConfig{Window: time.Second, MaxWindows: 512})
		p.Series = ts
		if _, err := p.Fig2Stalls([]int64{128}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ts.Snap())
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatal("time-series snapshot differs across worker counts")
	}
	var a, b bytes.Buffer
	if err := snaps[0].WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := snaps[1].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("time-series CSV differs across worker counts")
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
