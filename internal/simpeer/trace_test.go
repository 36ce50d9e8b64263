package simpeer

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// Tracing must be a pure observer: the same swarm run, with and without a
// tracer attached, produces bit-identical results.
func TestTracingIsInert(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 1)

	plain := baseConfig(192 * 1024)
	plain.Seed = 11
	plain.LossRate = 0.15
	bare, err := RunSwarm(plain, segs)
	if err != nil {
		t.Fatal(err)
	}

	traced := plain
	buf := trace.NewBuffer()
	traced.Tracer = trace.New(buf)
	obs, err := RunSwarm(traced, segs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare, obs) {
		t.Fatalf("results diverge with tracing enabled:\nbare:   %+v\ntraced: %+v", bare, obs)
	}
	if len(buf.Events()) == 0 {
		t.Fatal("tracer attached but no events recorded")
	}
}

// A traced run must attribute every stall: each stall_begin is accompanied
// by a stall_cause with a named cause at the same instant, and in a run
// where every peer finishes, each stall also ends.
func TestStallAttribution(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 2)
	cfg := baseConfig(128 * 1024)
	cfg.Seed = 7
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	res, err := RunSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measuredPeers(res) {
		if !finished(s) {
			t.Fatalf("peer %d did not finish; stall pairing below assumes completion", s.Peer)
		}
	}

	type key struct {
		peer int
		at   time.Duration
	}
	begins := map[key]bool{}
	causes := map[key]string{}
	perPeer := map[int]int{} // open stalls per peer
	var nBegin, nEnd int
	for _, ev := range buf.Events() {
		switch ev.Name {
		case trace.EvStallBegin:
			begins[key{ev.Peer, ev.At}] = true
			perPeer[ev.Peer]++
			nBegin++
		case trace.EvStallCause:
			for _, a := range ev.Args {
				if a.Key == "cause" && a.Str != "" {
					causes[key{ev.Peer, ev.At}] = a.Str
				}
			}
		case trace.EvStallEnd:
			if perPeer[ev.Peer] <= 0 {
				t.Fatalf("peer %d: stall_end at %v without open stall", ev.Peer, ev.At)
			}
			perPeer[ev.Peer]--
			nEnd++
		}
	}
	if nBegin == 0 {
		t.Skip("no stalls at this seed/bandwidth; attribution untestable")
	}
	for k := range begins {
		if causes[k] == "" {
			t.Errorf("stall_begin peer=%d at=%v has no attributed cause", k.peer, k.at)
		}
	}
	if nBegin != nEnd {
		t.Errorf("%d stall_begin vs %d stall_end in a fully-finished run", nBegin, nEnd)
	}

	// Cross-check against the result samples: traced stall counts must match
	// the player-reported per-peer stall totals.
	wantStalls := 0
	for _, s := range measuredPeers(res) {
		wantStalls += s.Metrics.Stalls
	}
	if nBegin != wantStalls {
		t.Errorf("traced %d stalls, samples report %d", nBegin, wantStalls)
	}
}

// The virtual-time summary and flow lifecycle events appear in a traced run.
func TestTraceContainsFlowAndSummaryEvents(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 30*time.Second, 3)
	cfg := baseConfig(512 * 1024)
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
	}
	for _, want := range []string{
		trace.EvFlowSetup, trace.EvFlowActivate, trace.EvFlowComplete,
		trace.EvPoolFill, trace.EvSourcePick, trace.EvSegComplete,
		trace.EvStartup, trace.EvFinished, trace.EvSimSummary,
	} {
		if names[want] == 0 {
			t.Errorf("no %s events; got %v", want, names)
		}
	}
	if names[trace.EvSimSummary] != 1 {
		t.Errorf("%d sim summary events, want 1", names[trace.EvSimSummary])
	}
}

// Every completed segment names its source, and the CDN origin's id is -1:
// a CDN-served completion carries src=-1 like any other source's id.
func TestTraceNamesCDNSource(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, time.Minute, 17)
	cfg := baseConfig(128 * 1024)
	cfg.Leechers = 8
	// A pool of four over one-slot sources overflows onto the CDN.
	cfg.Policy = core.FixedPool{K: 4}
	cfg.MaxUploadsPerPeer = 1
	cfg.CDN = &CDNAssist{BandwidthBytesPerSec: 1024 * 1024}
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	fromCDN := 0
	for _, ev := range buf.Events() {
		if ev.Name != trace.EvSegComplete {
			continue
		}
		src, ok := ev.Arg("src")
		if !ok {
			t.Fatalf("%s of peer %d segment %d names no src", ev.Name, ev.Peer, ev.Seg)
		}
		if src.Int == -1 {
			fromCDN++
		}
	}
	if fromCDN == 0 {
		t.Error("no segment_complete with src=-1 in a CDN-assisted run")
	}
}

// Player transitions surface lazily, and the call that most often reveals
// a stall is the completion that ends it. Attribution must look at the
// pool before that completion leaves it: with a fixed pool of one on a
// link slower than the clip, every stall waited on the one in-flight
// download, so every one is slow_flow with inflight >= 1 and none is a
// scheduler gap. (Pre-fix dropFlight ran first and all of them read
// empty_pool inflight=0.)
func TestStallClassifiedBeforePoolShrinks(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 40*time.Second, 1)
	cfg := baseConfig(64 * 1024)
	cfg.Leechers = 1
	cfg.LossRate = 0
	cfg.Policy = core.FixedPool{K: 1}
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	stalls := 0
	for _, ev := range buf.Events() {
		if ev.Name != trace.EvStallCause {
			continue
		}
		stalls++
		cause, inflight := ev.ArgStr("cause", ""), ev.ArgInt64("inflight", -1)
		if cause != trace.CauseSlowFlow || inflight < 1 {
			t.Errorf("stall at %v: cause=%s inflight=%d, want %s with inflight >= 1",
				ev.At, cause, inflight, trace.CauseSlowFlow)
		}
	}
	if stalls == 0 {
		t.Fatal("no stalls on a link at half the clip rate; the test exercises nothing")
	}
}

// A peer with nothing in flight because every holder's upload slot is taken
// waits on the source retry, and when its buffer runs dry during that wait
// the stall surfaces in the retry callback's own fill. The callback must
// sync the player before it clears retryPending, or the classifier sees a
// peer that is neither fetching nor waiting and blames the scheduler
// (empty_pool) for what is choked_sources. One upload slot per node and
// store-and-forward relaying keep the three viewers queueing for sources.
func TestStallInRetryCallbackIsChokedSources(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 4 * time.Second}, 40*time.Second, 1)
	cfg := baseConfig(96 * 1024)
	cfg.Leechers = 3
	cfg.LossRate = 0
	cfg.JoinSpread = 0
	cfg.MaxUploadsPerPeer = 1
	cfg.DisableRelay = true
	cfg.Policy = core.FixedPool{K: 1}
	buf := trace.NewBuffer()
	cfg.Tracer = trace.New(buf)
	if _, err := RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	causes := map[string]int{}
	for _, ev := range buf.Events() {
		if ev.Name == trace.EvStallCause {
			causes[ev.ArgStr("cause", "")]++
		}
	}
	if causes[trace.CauseChokedSources] == 0 || causes[trace.CauseEmptyPool] != 0 {
		t.Errorf("stall causes = %v, want some %s and no %s", causes, trace.CauseChokedSources, trace.CauseEmptyPool)
	}
}
