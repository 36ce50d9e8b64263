package peer

import (
	"context"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/player"
	"p2psplice/internal/shaper"
	"p2psplice/internal/simpeer"
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

	// The node records the pool decisions the emulation does, so its log
	// rebuilds the decision series too, not only the player's.
	b := tracereport.NewTimeSeriesBuilder(tracereport.TimeSeriesOptions{})
	if err := b.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	totals := map[string]int64{}
	for _, s := range b.Snap().Series {
		totals[s.Name] = tsTotal(s)
	}
	if got := totals[trace.TSSegmentsCompleted]; got != int64(len(m.Segments)) {
		t.Errorf("%s total = %d, want %d", trace.TSSegmentsCompleted, got, len(m.Segments))
	}
	for _, name := range []string{
		trace.TSBufferOccupancyUS, trace.TSPoolTargetK, trace.TSInflightFlows,
		trace.TSStallFractionPermille, // one viewer: every stall samples 1000‰ going in
	} {
		if totals[name] == 0 {
			t.Errorf("%s rebuilt from the node's log has no samples", name)
		}
	}
}

// offlineLeecher builds a leecher that runs no goroutines (no listener,
// tracker loop or watchdog): the test owns every player call, and may
// move the playback clock by backdating n.started.
func offlineLeecher(t *testing.T, m *container.Manifest, tr *trace.Tracer) *Node {
	t.Helper()
	n := pickTestNode()
	n.cfg.Policy = core.FixedPool{K: 1}
	n.manifest, n.tr = m, tr
	n.qoe = trace.NewQoE(tr, nil, "p2p", m.Splicing, nil, 1)
	n.completeC = make(chan struct{})
	var err error
	if n.store, err = NewStore(len(m.Segments)); err != nil {
		t.Fatal(err)
	}
	sizes, durations := make([]int64, len(m.Segments)), make([]time.Duration, len(m.Segments))
	for i, s := range m.Segments {
		sizes[i], durations[i] = s.Bytes, s.Duration
	}
	if n.play, err = player.New(player.Config{SegmentDurations: durations}); err != nil {
		t.Fatal(err)
	}
	n.play.SetObserver(n.playbackTransitionLocked)
	if err := n.play.Start(0); err != nil {
		t.Fatal(err)
	}
	n.roster, n.dl = core.NewRoster(nil, maxConcurrentPerConn), core.NewDownloads(n.store.Bitfield(), n.play, n.cfg.Policy, sizes, durations)
	n.roster.Track(&n.dl.Pool, -1)
	return n
}

// Player transitions surface lazily, and the call that most often reveals
// a stall is the completion that ends it. The node's playhead has passed
// its frontier while its only download is still in flight; when that
// download completes, the stall must be attributed with the download
// still in the pool — slow_flow inflight=1, not a scheduler gap.
// (Pre-fix onPiece deleted the entry first: empty_pool inflight=0.)
func TestStallClassifiedBeforePoolShrinks(t *testing.T) {
	m, blobs := testSwarmData(t, 6*time.Second, 2*time.Second)
	buf := trace.NewBuffer()
	n := offlineLeecher(t, m, trace.New(buf))
	all := make([]bool, len(m.Segments))
	for i := range all {
		all[i] = true
	}
	c := addFakeConn(t, n, 'a', all, false)

	// Segment 0 starts playback; its completion schedules segment 1.
	injectDownload(n, c, 0, 0)
	feedSegment(n, c, 0, blobs[0])
	if act := activeIndices(n); len(act) != 1 || act[1] != c {
		t.Fatalf("active = %v, want only segment 1 in flight", act)
	}
	// Ten seconds pass: the playhead ran out of video at 2 s.
	n.started = n.started.Add(-10 * time.Second)
	feedSegment(n, c, 1, blobs[1])

	var causes []trace.Event
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvStallCause {
			causes = append(causes, ev)
		}
	}
	if len(causes) != 1 {
		t.Fatalf("%d stall_cause events, want 1", len(causes))
	}
	if cause, k := causes[0].ArgStr("cause", ""), causes[0].ArgInt64("inflight", -1); cause != trace.CauseSlowFlow || k != 1 {
		t.Errorf("stall attributed %s inflight=%d, want %s inflight=1", cause, k, trace.CauseSlowFlow)
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

// counter is the value of the counter named name in reg's snapshot, 0 if
// it is absent.
func counter(reg *trace.Registry, name string) int64 {
	for _, s := range reg.Snap().Stats {
		if s.Name == name && s.Kind == "counter" {
			return s.Value
		}
	}
	return 0
}

// Before its meter's first sample, B is the same on both stacks for the
// same clip: the clip's mean wire rate, Σ bytes / Σ durations, not the
// coded rate the manifest's video header states. The first pool_fill of a
// node and of an estimating emulated peer carry the B that Eq. 1 read.
func TestPreSampleBandwidthMatchesEmulation(t *testing.T) {
	m, _ := testSwarmData(t, 20*time.Second, 2*time.Second)
	buf := trace.NewBuffer()
	offlineLeecher(t, m, trace.New(buf)).schedule()

	segs := make([]simpeer.SegmentMeta, len(m.Segments))
	for i, s := range m.Segments {
		segs[i] = simpeer.SegmentMeta{Bytes: s.Bytes, Duration: s.Duration}
	}
	simBuf := trace.NewBuffer()
	cfg := simpeer.SwarmConfig{Seed: 1, Leechers: 1, BandwidthBytesPerSec: 128 << 10,
		Policy: core.AdaptivePool{}, Tracer: trace.New(simBuf)}
	if _, err := simpeer.RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}

	firstB := func(events []trace.Event, peer int) int64 {
		for _, ev := range events {
			if ev.Name == trace.EvPoolFill && ev.Peer == peer {
				return ev.ArgInt64("bandwidth", -1)
			}
		}
		t.Fatalf("no pool_fill event of peer %d", peer)
		return 0
	}
	node, emulated := firstB(buf.Events(), -1), firstB(simBuf.Events(), 1)
	if node != emulated {
		t.Errorf("B before the first sample: node %d B/s, emulation %d B/s (coded rate %d B/s)",
			node, emulated, m.Video.BytesPerSecond)
	}
}
