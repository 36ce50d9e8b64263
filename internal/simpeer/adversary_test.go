package simpeer

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/reputation"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// repDefault returns a pointer to the default reputation config (the
// SwarmConfig field is a pointer so nil means "subsystem absent").
func repDefault() *reputation.Config {
	cfg := reputation.Default()
	return &cfg
}

// A wired-but-disabled reputation config (zero value: QuarantineScore 0)
// leaves the run bit-identical to one with no reputation at all: the
// selection passes, the discard path, and stall attribution all gate on
// the table being live, not merely configured.
func TestReputationDisabledConfigInert(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 7
	bare, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	wired := cfg
	wired.Reputation = &reputation.Config{}
	got, err := RunSwarm(wired, segs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Fatalf("disabled reputation config perturbs the run:\nbare:  %+v\nwired: %+v", bare, got)
	}
}

// adversaryMixConfig builds the shared scenario for the determinism and
// observer-inertness tests: three adversary kinds at once (polluter,
// stale-have liar, slowloris) with reputation on, one honest leecher.
func adversaryMixConfig(t *testing.T) (SwarmConfig, []SegmentMeta) {
	t.Helper()
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 11
	cfg.JoinSpread = 2 * time.Second
	cfg.Reputation = repDefault()
	cfg.Faults = fault.Merge(
		fault.Polluter(1, 3*time.Second, 90*time.Second, 60),
		fault.StaleHaveLiar(2, 5*time.Second, 90*time.Second),
		fault.Slowloris(3, 4*time.Second, 90*time.Second, 1024),
	)
	return cfg, segs
}

// Adversary plans and the reputation subsystem are part of the
// deterministic state: two identical runs agree bit for bit, results and
// traces included. The pollution draws are pure hashes, so they cannot
// perturb any other randomness.
func TestAdversaryRunDeterministic(t *testing.T) {
	cfg, segs := adversaryMixConfig(t)
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
		t.Fatal("adversarial runs diverge between identical configs")
	}
	if !reflect.DeepEqual(bufA.Events(), bufB.Events()) {
		t.Fatal("adversarial run traces diverge between identical configs")
	}
}

// Tracing and metrics stay inert under adversaries and reputation: the
// same run is bit-identical with both observers attached and with both
// off. This pins the CatRep emits and counters as pure listeners —
// quarantine enforcement itself must not depend on a tracer being wired.
func TestAdversaryObserversInert(t *testing.T) {
	cfg, segs := adversaryMixConfig(t)
	bare, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	obs := cfg
	obs.Tracer = trace.New(trace.NewBuffer())
	obs.Metrics = trace.NewRegistry()
	wired, err := RunSwarm(obs, segs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, wired) {
		t.Fatalf("adversarial run diverges when observed:\nbare:  %+v\nwired: %+v", bare, wired)
	}
}

// A stale-have liar lures requests it never serves: victims reap them by
// serve timeout, the reputation table quarantines the liar, honest peers
// still finish, and every stall stays attributed.
func TestStaleHaveLiarQuarantineAndAttribution(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(96 * 1024)
	cfg.Seed = 3
	cfg.JoinSpread = 2 * time.Second
	cfg.Reputation = repDefault()
	cfg.Faults = fault.StaleHaveLiar(1, 2*time.Second, 3*time.Minute)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversarial != 1 {
		t.Fatalf("Adversarial = %d, want 1", res.Adversarial)
	}
	if len(measuredPeers(res)) != cfg.Leechers-1 {
		t.Fatalf("got %d honest samples, want %d", len(measuredPeers(res)), cfg.Leechers-1)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("honest peer %d did not finish despite the liar being quarantinable", s.Peer)
		}
	}
	names := map[string]int{}
	quarantinedPeers := map[int]bool{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
		if ev.Name == trace.EvQuarantine {
			quarantinedPeers[ev.Peer] = true
		}
	}
	if names[trace.EvServeTimeout] == 0 {
		t.Error("a stale-have window produced no serve timeouts")
	}
	if names[trace.EvRepPenalty] == 0 {
		t.Error("serve timeouts produced no reputation penalties")
	}
	if names[trace.EvQuarantine] == 0 || !quarantinedPeers[1] {
		t.Errorf("liar (peer 1) was never quarantined; quarantine events on %v", quarantinedPeers)
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls under a stale-have liar: %+v", len(un), un)
	}
}

// With every other leecher a persistent corrupter, the one honest leecher
// still finishes: reputation quarantines the corrupters after a bounded
// number of poisoned serves and the honest seeder carries the swarm.
// Graceful degradation, not collapse.
func TestAllOtherLeechersAdversarialLiveness(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(96 * 1024)
	cfg.Seed = 5
	cfg.JoinSpread = 2 * time.Second
	cfg.Reputation = repDefault()
	cfg.Faults = fault.Merge(
		fault.Corrupter(2, time.Second, 5*time.Minute),
		fault.Corrupter(3, time.Second, 5*time.Minute),
		fault.Corrupter(4, time.Second, 5*time.Minute),
	)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversarial != 3 {
		t.Fatalf("Adversarial = %d, want 3", res.Adversarial)
	}
	if len(measuredPeers(res)) != 1 {
		t.Fatalf("got %d honest samples, want 1", len(measuredPeers(res)))
	}
	if !finished(measuredPeers(res)[0]) {
		t.Fatal("the honest peer did not finish with every other leecher a corrupter")
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls in the mostly-adversarial swarm: %+v", len(un), un)
	}
}

// Sole-source escape hatch: a single leecher whose only source — the
// seeder — is a polluter. The seeder gets quarantined, yet the run must
// still complete (the scheduler's escape hatch re-admits it), with stalls
// during the quarantine windows attributed to peer_quarantined.
func TestSoleSourceEscapeHatch(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 5
	cfg.Leechers = 1
	cfg.Reputation = repDefault()
	cfg.Faults = fault.Polluter(0, time.Second, 10*time.Minute, 60)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(measuredPeers(res)) != 1 {
		t.Fatalf("got %d samples, want 1", len(measuredPeers(res)))
	}
	if !finished(measuredPeers(res)[0]) {
		t.Fatal("viewer did not finish off a quarantined sole source — escape hatch broken")
	}
	quarantines := 0
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvQuarantine {
			if ev.Peer != 0 {
				t.Errorf("quarantine on peer %d; only the seeder misbehaves", ev.Peer)
			}
			quarantines++
		}
	}
	if quarantines == 0 {
		t.Fatal("a 60% polluting sole source was never quarantined")
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls under a quarantined sole source: %+v", len(un), un)
	}
	causes := map[string]int{}
	for _, tl := range tls {
		for _, st := range tl.Stalls {
			causes[st.Cause]++
		}
	}
	if causes[trace.CausePeerQuarantined] == 0 {
		t.Errorf("no peer_quarantined stalls despite escape-hatch downloads; causes: %v", causes)
	}
}

// A verified segment is stored in the step that takes it out of the pool,
// before its source is charged: a quarantine that charge raises refills
// every pool, and p's must not want the segment it is completing. Here a
// slow serve's cost alone quarantines, and at the higher floor every
// completion is slow. Before the fix p re-launched the segment between
// those two steps (at 64 KiB/s), and at 1 GiB/s a duplicate's completion
// found no record of it in flight (a panic). No segment is re-launched
// while it completes, and every leecher stores every segment once.
func TestQuarantineAtCompletionStoresOnce(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 1)
	for _, floor := range []int64{64 << 10, 1 << 30} {
		cfg := baseConfig(256 * 1024)
		rep := reputation.Default()
		rep.SlowServeCost, rep.QuarantineScore = 10, 10
		rep.SlowServeBytesPerSec = floor
		cfg.Reputation = &rep
		buf := trace.NewBuffer()
		cfg.Tracer = trace.New(buf)
		res, err := RunSwarm(cfg, segs)
		if err != nil {
			t.Fatal(err)
		}
		// A launch never completes at its own instant (request set-up
		// takes an RTT), so a pick at a completion's instant is a
		// re-launch of the segment being completed.
		picked := map[[2]int]time.Duration{}
		stored := map[[2]int]int{}
		for _, ev := range buf.Events() {
			key := [2]int{ev.Peer, ev.Seg}
			switch ev.Name {
			case trace.EvSourcePick:
				picked[key] = ev.At
			case trace.EvSegComplete:
				stored[key]++
				if at, ok := picked[key]; ok && at == ev.At {
					t.Errorf("floor %d B/s: peer %d re-launched segment %d at %v while completing it", floor, ev.Peer, ev.Seg, at)
				}
			}
		}
		for _, p := range res.Peers {
			for idx := range segs {
				if n := stored[[2]int{p.Peer, idx}]; n != 1 {
					t.Errorf("floor %d B/s: peer %d stored segment %d %d times, want 1", floor, p.Peer, idx, n)
				}
			}
		}
	}
}
