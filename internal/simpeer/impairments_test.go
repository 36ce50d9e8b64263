package simpeer

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// geTest is a bursty model with a ~5% long-run average loss rate
// (stationary bad fraction p13/(p13+p31) = 1/7; 0.005·6/7 + 0.32/7 ≈ 0.05):
// the same mean loss as the default i.i.d. 5%, concentrated into bursts.
var geTest = fault.GEModel{PGood: 0.005, PBad: 0.32, P13: 0.1, P31: 0.6}

// A burst-loss window produces loss-state transitions in the trace and
// burst_loss stall attribution; every stall stays attributed and the
// swarm still finishes.
func TestBurstLossAttribution(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(96 * 1024)
	cfg.Seed = 3
	cfg.LossRate = 0.005 // matches the GE good state outside the window
	cfg.JoinSpread = 2 * time.Second
	var plans []fault.Plan
	for n := 0; n <= cfg.Leechers; n++ {
		plans = append(plans, fault.BurstLoss(n, 5*time.Second, 80*time.Second, geTest))
	}
	cfg.Faults = fault.Merge(plans...)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("peer %d did not finish through the burst window", s.Peer)
		}
	}
	names := map[string]int{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
	}
	wantN := cfg.Leechers + 1
	if names[trace.EvBurstLoss] != wantN || names[trace.EvBurstLossEnd] != wantN {
		t.Errorf("burst window events = %d start / %d end, want %d / %d",
			names[trace.EvBurstLoss], names[trace.EvBurstLossEnd], wantN, wantN)
	}
	if names[trace.EvLossState] == 0 {
		t.Error("an 80s GE window with mean sojourns of 10s/1.7s fired no loss_state transitions")
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls under burst loss: %+v", len(un), un)
	}
	causes := map[string]int{}
	for _, tl := range tls {
		for _, st := range tl.Stalls {
			causes[st.Cause]++
		}
	}
	if causes[trace.CauseBurstLoss] == 0 {
		t.Errorf("no burst_loss stalls despite swarm-wide GE windows at 96 kB/s; causes: %v", causes)
	}
}

// A corruption window discards segments as verify failures, the peer
// re-downloads them and still finishes, and stalls inside the window
// attribute to corrupt_segment.
func TestCorruptionDiscardAndAttribution(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 5
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Corruption(1, 5*time.Second, 60*time.Second, 50)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Errorf("peer %d did not finish through the corruption window", s.Peer)
		}
	}
	fails := 0
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvVerifyFail {
			if ev.Peer != 1 {
				t.Errorf("verify_fail on peer %d; the window covers only peer 1", ev.Peer)
			}
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("a 60s window at 50% corruption discarded nothing")
	}
	tls := trace.BuildTimeline(buf.Events())
	if un := trace.Unattributed(tls); len(un) > 0 {
		t.Fatalf("%d unattributed stalls under corruption: %+v", len(un), un)
	}
	causes := map[string]int{}
	for _, tl := range tls {
		if tl.Peer != 1 {
			continue
		}
		for _, st := range tl.Stalls {
			causes[st.Cause]++
		}
	}
	if causes[trace.CauseCorruptSegment] == 0 {
		t.Errorf("no corrupt_segment stalls on peer 1 despite 50%% discards; causes: %v", causes)
	}
}

// Correlated-impairment plans are part of the deterministic state: two
// identical runs agree bit for bit, results and traces included. The
// corruption draws are pure hashes, so they cannot perturb any other
// randomness.
func TestImpairedRunDeterministic(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 9
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Merge(
		fault.BurstLoss(1, 4*time.Second, 20*time.Second, geTest),
		fault.BurstLoss(3, 8*time.Second, 15*time.Second, geTest),
		fault.Corruption(2, 6*time.Second, 18*time.Second, 30),
	)
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
		t.Fatal("impaired runs diverge between identical configs")
	}
	if !reflect.DeepEqual(bufA.Events(), bufB.Events()) {
		t.Fatal("impaired run traces diverge between identical configs")
	}
}

// Tracing stays inert under correlated impairments: the same impaired
// run is bit-identical with tracing plus metrics attached and with
// both off. This pins down the loss-state observer (attached in either
// mode) as a pure listener.
func TestImpairmentObserversInert(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 9
	cfg.JoinSpread = 2 * time.Second
	cfg.Faults = fault.Merge(
		fault.BurstLoss(1, 4*time.Second, 20*time.Second, geTest),
		fault.Corruption(2, 6*time.Second, 18*time.Second, 30),
	)
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
		t.Fatalf("impaired run diverges when observed:\nbare:  %+v\nwired: %+v", bare, wired)
	}
}
