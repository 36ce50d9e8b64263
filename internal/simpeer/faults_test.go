package simpeer

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// An explicitly wired empty plan (and zero backoff) must be bit-identical
// to a run without the fault layer at all.
func TestEmptyFaultPlanIsInert(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	plain := baseConfig(192 * 1024)
	plain.Seed = 11
	plain.LossRate = 0.15
	bare, err := RunSwarm(plain, segs)
	if err != nil {
		t.Fatal(err)
	}
	wired := plain
	wired.Faults = fault.Plan{}
	wired.RetryBackoff = fault.Backoff{}
	obs, err := RunSwarm(wired, segs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, obs) {
		t.Fatalf("results diverge with an empty fault plan wired in:\nbare:  %+v\nwired: %+v", bare, obs)
	}
}

// A mid-stream crash must return the crashed peer's in-flight segments to
// the pool immediately; the survivors finish, the crashed peer rejoins
// with its store intact and finishes too, but is excluded from its Summary.
func TestPeerCrashAndRejoin(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(256 * 1024)
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Merge(
		Plan2CrashRejoin(2, 8*time.Second, 14*time.Second),
	)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1", res.Crashed)
	}
	if len(measuredPeers(res)) != cfg.Leechers-1 {
		t.Fatalf("got %d samples, want %d (crashed peer excluded)", len(measuredPeers(res)), cfg.Leechers-1)
	}
	for _, s := range measuredPeers(res) {
		if s.Peer == 2 {
			t.Fatal("crashed peer 2 is measured")
		}
		if !finished(s) {
			t.Errorf("survivor peer %d did not finish through the crash", s.Peer)
		}
	}
	var crashed *PeerResult
	for i := range res.Peers {
		if res.Peers[i].Peer == 2 {
			crashed = &res.Peers[i]
		}
	}
	if crashed == nil || crashed.Crashes != 1 {
		t.Fatalf("peer 2 result %+v, want Crashes=1", crashed)
	}
	names := map[string]int{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
	}
	if names[trace.EvPeerCrash] != 1 || names[trace.EvPeerRejoin] != 1 {
		t.Errorf("crash/rejoin events = %d/%d, want 1/1", names[trace.EvPeerCrash], names[trace.EvPeerRejoin])
	}
	if names[trace.EvFlowCancel] == 0 {
		t.Error("a crash mid-download should cancel flows; no flow_cancel events")
	}
}

// Plan2CrashRejoin builds one node's crash window [down, up) (test
// helper kept exported-free of init-order issues).
func Plan2CrashRejoin(node int, down, up time.Duration) fault.Plan {
	return fault.Plan{Events: []fault.Event{
		{At: down, Dur: up - down, Kind: fault.KindPeerCrash, Node: node},
	}}
}

// The swarm survives a seeder outage: peers that already hold segments
// serve the rest, and downloads blocked on seeder-only segments resume
// on rejoin. Everyone finishes.
func TestSeederOutageSurvived(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(256 * 1024)
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.SeederOutage(10*time.Second, 8*time.Second)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	// The seeder is not a leecher: its crash must not shrink the measured set.
	if len(measuredPeers(res)) != cfg.Leechers {
		t.Fatalf("got %d samples, want %d", len(measuredPeers(res)), cfg.Leechers)
	}
	if res.Crashed != 0 {
		t.Fatalf("Crashed = %d, want 0 (only the seeder crashed)", res.Crashed)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("peer %d did not finish through the seeder outage", s.Peer)
		}
	}
}

// Joins arriving during a tracker outage defer until recovery, then the
// swarm proceeds normally.
func TestTrackerOutageDefersJoins(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(256 * 1024)
	cfg.JoinSpread = 2 * time.Second // all joins land inside the outage
	cfg.Faults = fault.TrackerOutage(0, 5*time.Second)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(measuredPeers(res)) != cfg.Leechers {
		t.Fatalf("got %d samples, want %d", len(measuredPeers(res)), cfg.Leechers)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("peer %d did not finish after the deferred join", s.Peer)
		}
	}
	// No peer can have joined (started playing) before the outage ended.
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvStartup && ev.At < 5*time.Second {
			t.Errorf("peer %d started at %v, inside the tracker outage", ev.Peer, ev.At)
		}
	}
}

// A seeded fault plan is part of the deterministic state: two runs with
// the same config produce identical results, traces included.
func TestFaultedRunDeterministic(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(192 * 1024)
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Merge(
		fault.Churn(cfg.Seed, []int{1, 3}, time.Minute, 15*time.Second, 4*time.Second),
		fault.SeederOutage(12*time.Second, 5*time.Second),
		fault.LinkFlap(2, 6*time.Second, 4*time.Second),
	)
	cfg.RetryBackoff = fault.Backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second, JitterFrac: 0.5}
	bufA := trace.NewBuffer()
	a := cfg
	a.Tracer = trace.New(bufA)
	ra, err := RunSwarm(a, segs)
	if err != nil {
		t.Fatal(err)
	}
	bufB := trace.NewBuffer()
	b := cfg
	b.Tracer = trace.New(bufB)
	rb, err := RunSwarm(b, segs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("faulted runs diverge between identical configs")
	}
	if !reflect.DeepEqual(bufA.Events(), bufB.Events()) {
		t.Fatal("faulted run traces diverge between identical configs")
	}
}

// Every stall in a heavily-faulted run carries a cause, and the
// fault-derived causes actually appear.
func TestFaultedStallAttribution(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 7
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Merge(
		// Seeder outage with the tracker also down: sourceless stalls
		// during the overlap attribute to the tracker (the binding
		// constraint on rediscovery), afterwards to the crashed seeder.
		fault.SeederOutage(10*time.Second, 20*time.Second),
		fault.TrackerOutage(10*time.Second, 8*time.Second),
		// A mid-download link flap on leecher 2.
		fault.LinkFlap(2, 35*time.Second, 6*time.Second),
	)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls under faults: %+v", len(un), un)
	}
	causes := map[string]int{}
	stalls := 0
	for _, tl := range tls {
		for _, st := range tl.Stalls {
			causes[st.Cause]++
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("a 20s seeder outage at 128 kB/s must stall someone")
	}
	if causes[trace.CausePeerCrash] == 0 && causes[trace.CauseTrackerDown] == 0 {
		t.Errorf("no peer_crash or tracker_down stalls despite a 20s seeder outage; causes: %v", causes)
	}
	if causes[trace.CauseLinkDown] == 0 {
		t.Logf("note: no link_down stalls at this seed (flap was masked); causes: %v", causes)
	}
}

// A peer whose own link flaps mid-download attributes its stalls to the
// link, and finishes once the link returns.
func TestLinkFlapAttributionAndRecovery(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(96 * 1024)
	cfg.Leechers = 2
	cfg.JoinSpread = time.Second
	cfg.Faults = fault.LinkFlap(1, 8*time.Second, 10*time.Second)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("peer %d did not finish after the link flap", s.Peer)
		}
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls: %+v", len(un), un)
	}
	linkDown := 0
	for _, tl := range tls {
		if tl.Peer != 1 {
			continue
		}
		for _, st := range tl.Stalls {
			if st.Cause == trace.CauseLinkDown {
				linkDown++
			}
		}
	}
	if linkDown == 0 {
		t.Error("a 10s link outage at 96 kB/s must produce a link_down stall on peer 1")
	}
	names := map[string]int{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
	}
	if names[trace.EvLinkDown] != 1 || names[trace.EvLinkUp] != 1 {
		t.Errorf("link events = %d down / %d up, want 1 / 1", names[trace.EvLinkDown], names[trace.EvLinkUp])
	}
}

// Satellite: a leecher departing mid-transfer (churn) must cancel its
// flows — both directions — and the remaining swarm finishes.
func TestDepartWhileDownloading(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 3)
	cfg := baseConfig(128 * 1024)
	cfg.Leechers = 5
	cfg.JoinSpread = 2 * time.Second
	cfg.Churn = ChurnModel{MeanOnline: 20 * time.Second, MinRemaining: 2}
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("mean-20s churn over a 1-minute clip produced no departures at this seed; pick another seed")
	}
	if len(measuredPeers(res))+res.Departed != cfg.Leechers {
		t.Fatalf("samples (%d) + departed (%d) != leechers (%d)", len(measuredPeers(res)), res.Departed, cfg.Leechers)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("survivor peer %d did not finish after departures", s.Peer)
		}
	}
	cancels := 0
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvFlowCancel {
			cancels++
		}
	}
	if cancels == 0 {
		t.Error("departures in a busy swarm should cancel in-flight flows; no flow_cancel events")
	}
}

// An invalid plan is rejected before the run starts.
func TestInvalidPlanRejected(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(256 * 1024)
	cfg.Faults = fault.Plan{Events: []fault.Event{
		{At: time.Second, Kind: fault.KindPeerCrash, Node: 1}, // no Dur: never rejoins
	}}
	if _, err := RunSwarm(cfg, segs); err == nil {
		t.Fatal("RunSwarm accepted a plan with a zero-length crash window")
	}
	cfg.Faults = fault.SeederOutage(0, time.Second)
	cfg.Faults.Events[0].Node = 99
	if _, err := RunSwarm(cfg, segs); err == nil {
		t.Fatal("RunSwarm accepted a plan addressing a nonexistent node")
	}
}

// Backoff-enabled retries still converge: a swarm with aggressive churn
// and exponential retry backoff completes for the survivors.
func TestBackoffRetryCompletes(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(192 * 1024)
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Churn(cfg.Seed, []int{1, 3}, 40*time.Second, 12*time.Second, 3*time.Second)
	cfg.RetryBackoff = fault.Backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second, JitterFrac: 0.5}
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("never-crashed peer %d did not finish under churn with backoff", s.Peer)
		}
	}
}

// fault's begin/end name table and the trace.Ev* fault constants (what
// this emulation and the real node emit) are two spellings of one
// vocabulary: pin every kind × {begin, end} so they cannot drift, and
// check a run traces each edge of its plan under exactly that name.
func TestFaultEdgeNamesMatchTraceEvents(t *testing.T) {
	m := fault.GEModel{PGood: 0.005, PBad: 0.3, P13: 0.2, P31: 0.8}
	plan := fault.Merge( // one event of every kind, in Kind order
		fault.SeederOutage(10*time.Second, 2*time.Second),
		fault.LinkFlap(1, 6*time.Second, 2*time.Second),
		fault.Plan{Events: []fault.Event{{At: 7 * time.Second, Kind: fault.KindLinkRate, Node: 2, BytesPerSec: 128 << 10}}},
		fault.TrackerOutage(time.Second, time.Second),
		fault.BurstLoss(2, 3*time.Second, 4*time.Second, m),
		fault.Corruption(3, 2*time.Second, 5*time.Second, 40),
		fault.Polluter(4, 4*time.Second, 5*time.Second, 50),
		fault.Duplication(0, 0, 5*time.Second),
	)
	want := [][2]string{
		fault.KindPeerCrash:   {trace.EvPeerCrash, trace.EvPeerRejoin},
		fault.KindLinkDown:    {trace.EvLinkDown, trace.EvLinkUp},
		fault.KindLinkRate:    {trace.EvLinkRate, ""},
		fault.KindTrackerDown: {trace.EvTrackerDown, trace.EvTrackerUp},
		fault.KindBurstLoss:   {trace.EvBurstLoss, trace.EvBurstLossEnd},
		fault.KindCorrupt:     {trace.EvCorrupt, trace.EvCorruptEnd},
		fault.KindAdversary:   {trace.EvAdversary, trace.EvAdversaryEnd},
		fault.KindDuplicate:   {trace.EvDuplicate, trace.EvDuplicateEnd},
	}
	if unknown := fault.Kind(len(want)); unknown.String() != "kind(8)" || len(plan.Events) != len(want) {
		t.Fatalf("the table must cover every kind: Kind(%d) = %s, plan has %d events", len(want), unknown, len(plan.Events))
	}
	for k, ev := range plan.Events {
		if int(ev.Kind) != k {
			t.Fatalf("plan event %d is a %s", k, ev.Kind)
		}
		begin, end := fault.Edge{Event: ev}, fault.Edge{Event: ev, End: true}
		if begin.Name() != want[k][0] || end.Name() != want[k][1] || ev.Kind.String() != want[k][0] {
			t.Errorf("kind %d: fault names %q/%q, trace names %q/%q", k, begin.Name(), end.Name(), want[k][0], want[k][1])
		}
	}

	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(256 * 1024)
	cfg.Faults = plan
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	type traced struct {
		name string
		at   time.Duration
		peer int
	}
	seen := map[traced]bool{}
	for _, ev := range buf.Events() {
		if ev.Cat == trace.CatFault {
			seen[traced{ev.Name, ev.At, ev.Peer}] = true
		}
	}
	for _, e := range plan.Edges() {
		peer := e.Node
		if e.Kind == fault.KindTrackerDown {
			peer = -1
		}
		if !seen[traced{e.Name(), e.At, peer}] {
			t.Errorf("no %q fault event traced for peer %d at %v", e.Name(), peer, e.At)
		}
	}
}
