package peer

import (
	"context"
	"testing"
	"time"

	"p2psplice/internal/shaper"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// A real node's own trace must read back through the analyzer the way
// an emulated swarm's does: one playback peer, its startup, every stall
// with a cause, every fetched segment. The viewer is shaped below the
// clip rate, so once the first segment starts playback the second cannot
// arrive before the buffer runs dry and a stall is forced.
func TestNodeTraceThroughAnalyzer(t *testing.T) {
	m, blobs := testSwarmData(t, time.Second, 500*time.Millisecond)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Shape = &shaper.Config{RateBytesPerSec: 20 * 1024, Burst: 4 * 1024}
	l, err := Join(trk, seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}
	// Stop the node's goroutines so nothing transitions between the two
	// reads; Playback itself surfaces (and traces) transitions up to now.
	l.Close()
	pm := l.Playback()
	events := buf.Events()
	if pm.Stalls == 0 {
		t.Fatal("viewer shaped below the clip rate never stalled")
	}

	a := tracereport.AnalyzeFiles([]string{"node.jsonl"}, [][]trace.Event{events})
	r := a.Report
	if r.Peers != 1 {
		t.Fatalf("report sees %d playback peers in a node's own log, want 1", r.Peers)
	}
	if len(a.StartupUS) != 1 || a.StartupUS[0] != pm.StartupTime.Microseconds() {
		t.Errorf("startup samples = %v, player reports %dµs", a.StartupUS, pm.StartupTime.Microseconds())
	}
	if r.Stalls.Count != pm.Stalls || r.Stalls.Attributed != pm.Stalls {
		t.Errorf("stalls = %+v, player reports %d", r.Stalls, pm.Stalls)
	}
	known := map[string]bool{}
	for _, c := range trace.StallCauses() {
		known[c] = true
	}
	for _, tl := range trace.BuildTimeline(events) {
		for _, s := range tl.Stalls {
			if !known[s.Cause] {
				t.Errorf("stall at %dµs carries cause %q, outside the closed set", s.StartUS, s.Cause)
			}
		}
	}
	if r.Segments.Count != len(m.Segments) {
		t.Errorf("report counts %d segments, viewer fetched %d", r.Segments.Count, len(m.Segments))
	}

	b := tracereport.NewTimeSeriesBuilder(tracereport.TimeSeriesOptions{})
	b.AddEvents(events)
	for _, s := range b.Snap().Series {
		switch s.Name {
		case trace.TSSegmentsCompleted:
			if s.Total() != int64(len(m.Segments)) {
				t.Errorf("%s total = %d, want %d", s.Name, s.Total(), len(m.Segments))
			}
		case trace.TSStallFractionPermille:
			// One viewer: every stall samples 1000‰ going in.
			if s.Total() == 0 {
				t.Errorf("%s has no samples for %d stalls", s.Name, pm.Stalls)
			}
		}
	}
}
