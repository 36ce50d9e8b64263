package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestChurnDeterministic(t *testing.T) {
	nodes := []int{1, 3, 5}
	a := Churn(42, nodes, 2*time.Minute, 20*time.Second, 5*time.Second)
	b := Churn(42, nodes, 2*time.Minute, 20*time.Second, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different churn plans")
	}
	c := Churn(43, nodes, 2*time.Minute, 20*time.Second, 5*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical churn plans")
	}
	if a.Empty() {
		t.Fatal("expected a 2-minute churn plan with 20s mean online to schedule events")
	}
}

func TestChurnWindowsClosedAndValid(t *testing.T) {
	horizon := 90 * time.Second
	p := Churn(7, []int{1, 2, 3, 4}, horizon, 10*time.Second, 3*time.Second)
	if err := p.Validate(4); err != nil {
		t.Fatalf("churn plan invalid: %v", err)
	}
	// One crash window per offline session, wholly inside the horizon,
	// the sessions of one node in order.
	lastUp := map[int]time.Duration{}
	for _, ev := range p.Events {
		if ev.Kind != KindPeerCrash || ev.Dur <= 0 {
			t.Fatalf("bad churn session %+v", ev)
		}
		if ev.At < lastUp[ev.Node] || ev.At+ev.Dur >= horizon {
			t.Fatalf("session %+v outside (%v, %v)", ev, lastUp[ev.Node], horizon)
		}
		lastUp[ev.Node] = ev.At + ev.Dur
	}
}

func TestEdgesStableAndNonMutating(t *testing.T) {
	p := Plan{Events: []Event{
		{At: time.Second, Dur: time.Second, Kind: KindLinkDown, Node: 2},
		{At: 0, Dur: 2 * time.Second, Kind: KindPeerCrash, Node: 1},
		{At: 2 * time.Second, Kind: KindLinkRate, Node: 3, BytesPerSec: 1},
	}}
	edges := p.Edges()
	if p.Events[0].Kind != KindLinkDown {
		t.Fatal("Edges mutated the receiver")
	}
	// Same-instant edges keep authored order: at 2s the flap (event 0)
	// ends before the crash (event 1) does, and the step comes last.
	want := []struct {
		name string
		at   time.Duration
		end  bool
	}{
		{"peer_crash", 0, false},
		{"link_down", time.Second, false},
		{"link_up", 2 * time.Second, true},
		{"peer_rejoin", 2 * time.Second, true},
		{"link_rate", 2 * time.Second, false},
	}
	if len(edges) != len(want) {
		t.Fatalf("got %d edges, want %d (a step has no end)", len(edges), len(want))
	}
	for i, e := range edges {
		if e.Name() != want[i].name || e.At != want[i].at || e.End != want[i].end {
			t.Fatalf("edge %d: got %s at %v end=%v, want %+v (stable same-instant order lost)",
				i, e.Name(), e.At, e.End, want[i])
		}
	}
	if first := edges[0]; first.Event != p.Events[1] {
		t.Fatalf("edge does not carry its event: %+v", first)
	}
}

func TestValidateRejectsBrokenPlans(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"zero-Dur crash", Plan{Events: []Event{{At: 0, Kind: KindPeerCrash, Node: 1}}}},
		{"negative-Dur crash", Plan{Events: []Event{{At: time.Second, Dur: -time.Second, Kind: KindPeerCrash, Node: 1}}}},
		{"zero-Dur link down", Plan{Events: []Event{{At: 0, Kind: KindLinkDown, Node: 1}}}},
		{"zero-Dur tracker down", Plan{Events: []Event{{At: 0, Kind: KindTrackerDown}}}},
		{"node out of range", Merge(SeederOutage(0, time.Second), LinkFlap(9, 0, time.Second))},
		{"negative node", LinkFlap(-1, 0, time.Second)},
		{"negative time", SeederOutage(-time.Second, 500*time.Millisecond)},
		{"zero link rate", Plan{Events: []Event{{At: 0, Kind: KindLinkRate, Node: 1}}}},
		{"link rate with a duration", Plan{Events: []Event{{At: 0, Dur: time.Second, Kind: KindLinkRate, Node: 1, BytesPerSec: 1}}}},
		{"zero-Dur adversary", Plan{Events: []Event{{At: 0, Kind: KindAdversary, Node: 1, Adversary: AdvCorrupter}}}},
		{"double adversary", Merge(Corrupter(1, 0, 5*time.Second), StaleHaveLiar(1, time.Second, time.Second))},
		{"adversary none kind", Plan{Events: []Event{
			{At: 0, Dur: time.Second, Kind: KindAdversary, Node: 1, Adversary: AdvNone},
		}}},
		{"polluter zero percent", Polluter(1, 0, time.Second, 0)},
		{"polluter over 100", Polluter(1, 0, time.Second, 101)},
		{"slowloris zero trickle", Slowloris(1, 0, time.Second, 0)},
		{"zero-Dur duplicate", Plan{Events: []Event{{At: 0, Kind: KindDuplicate, Node: 1}}}},
		{"overlapping crashes", Merge(SeederOutage(0, 2*time.Second), SeederOutage(time.Second, 2*time.Second))},
		{"overlapping tracker outages", Merge(TrackerOutage(0, 2*time.Second), TrackerOutage(time.Second, time.Second))},
		{"unknown kind", Plan{Events: []Event{{At: 0, Dur: time.Second, Kind: KindDuplicate + 1, Node: 1}}}},
		{"negative kind", Plan{Events: []Event{{At: 0, Dur: time.Second, Kind: -1, Node: 1}}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted a broken plan", tc.name)
		}
	}
	ok := Merge(
		SeederOutage(time.Second, 2*time.Second),
		SeederOutage(3*time.Second, time.Second), // back to back is not an overlap
		TrackerOutage(500*time.Millisecond, time.Second),
		LinkFlap(2, 0, 3*time.Second),
		RateDip(1, time.Second, time.Second, 16<<10, 64<<10),
		Corrupter(1, 0, 4*time.Second),
		Polluter(2, time.Second, 2*time.Second, 60),
		StaleHaveLiar(3, 0, time.Second),
		Slowloris(3, 2*time.Second, time.Second, 1<<10),
		Duplication(2, 0, 5*time.Second),
	)
	if err := ok.Validate(3); err != nil {
		t.Fatalf("Validate rejected a well-formed plan: %v", err)
	}
}

// Validate reports the first offender in time order, every time. (When
// windows were begin/end event pairs, the "never closes" checks ranged
// over maps and this plan's error named node 1, 2 or 3 depending on the
// run.)
func TestValidateErrorDeterministic(t *testing.T) {
	p := Plan{Events: []Event{
		{At: 0, Kind: KindPeerCrash, Node: 1},
		{At: time.Second, Kind: KindPeerCrash, Node: 2},
		{At: time.Second, Kind: KindPeerCrash, Node: 3},
	}}
	first := p.Validate(3)
	if first == nil || !strings.Contains(first.Error(), "node 1 ") {
		t.Fatalf("Validate = %v, want an error naming node 1, the first offender", first)
	}
	for i := 0; i < 100; i++ {
		if err := p.Validate(3); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: Validate = %v, want %v every time", i, err, first)
		}
	}
}

func TestAdversaryConstructorsAndNames(t *testing.T) {
	p := Polluter(2, time.Second, 3*time.Second, 25)
	if len(p.Events) != 1 {
		t.Fatalf("Polluter produced %d events, want 1", len(p.Events))
	}
	w := p.Events[0]
	if w.Kind != KindAdversary || w.Adversary != AdvPolluter || w.Percent != 25 || w.Node != 2 ||
		w.At != time.Second || w.Dur != 3*time.Second {
		t.Fatalf("bad polluter window: %+v", w)
	}
	edges := p.Edges()
	if len(edges) != 2 || edges[0].Name() != "adversary_start" || edges[1].At != 4*time.Second || !edges[1].End {
		t.Fatalf("bad polluter edges: %+v", edges)
	}
	names := map[string]string{
		KindAdversary.String(): "adversary_start",
		edges[1].Name():        "adversary_end",
		KindDuplicate.String(): "duplicate_start",
		Kind(99).String():      "kind(99)",
		AdvCorrupter.String():  "corrupter",
		AdvPolluter.String():   "polluter",
		AdvStaleHave.String():  "stale_have",
		AdvSlowloris.String():  "slowloris",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("String(): got %q want %q", got, want)
		}
	}
}

func TestPolluteDrawPureAndSensitive(t *testing.T) {
	if PolluteDraw(1, 2, 3, 4, 5) != PolluteDraw(1, 2, 3, 4, 5) {
		t.Fatal("PolluteDraw is not a pure function of its arguments")
	}
	base := PolluteDraw(1, 2, 3, 4, 5)
	variants := []float64{
		PolluteDraw(2, 2, 3, 4, 5), // seed
		PolluteDraw(1, 3, 3, 4, 5), // src
		PolluteDraw(1, 2, 4, 4, 5), // dst
		PolluteDraw(1, 2, 3, 5, 5), // seg
		PolluteDraw(1, 2, 3, 4, 6), // attempt
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d: draw insensitive to its key component", i)
		}
		if v < 0 || v >= 1 {
			t.Errorf("variant %d: draw %v outside [0, 1)", i, v)
		}
	}
	// Draws should be roughly uniform: over 1000 attempts at 60%%
	// pollution, between 450 and 750 should fall under the threshold.
	hits := 0
	for a := 0; a < 1000; a++ {
		if PolluteDraw(7, 1, 2, 3, a)*100 < 60 {
			hits++
		}
	}
	if hits < 450 || hits > 750 {
		t.Fatalf("60%% pollution hit %d/1000 attempts — draw badly skewed", hits)
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second, JitterFrac: 0.5}
	if !b.Enabled() {
		t.Fatal("configured backoff reports disabled")
	}
	if (Backoff{}).Enabled() {
		t.Fatal("zero backoff reports enabled")
	}
	if d := (Backoff{}).Delay(1, 2, 3); d != 0 {
		t.Fatalf("disabled backoff returned %v", d)
	}
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.Delay(1000, 3, attempt)
		d2 := b.Delay(1000, 3, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		// Unjittered envelope: min(Base<<attempt, Cap) ± 25%.
		base := b.Base << attempt
		if attempt > 5 || base > b.Cap {
			base = b.Cap
		}
		lo := time.Duration(float64(base) * 0.74)
		hi := time.Duration(float64(base) * 1.26)
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside jitter envelope [%v, %v]", attempt, d1, lo, hi)
		}
	}
	if b.Delay(1000, 3, 2) == b.Delay(1001, 3, 2) &&
		b.Delay(1000, 3, 3) == b.Delay(1001, 3, 3) &&
		b.Delay(1000, 4, 2) == b.Delay(1000, 5, 2) {
		t.Fatal("jitter appears insensitive to seed and node")
	}
	// Huge attempt counts must not overflow into negative delays.
	if d := b.Delay(1, 1, 400); d <= 0 || d > time.Duration(float64(b.Cap)*1.26) {
		t.Fatalf("attempt 400: delay %v escaped the cap", d)
	}
}

func TestBurstAndCorruptionWindowsValidate(t *testing.T) {
	m := GEModel{PGood: 0.005, PBad: 0.32, P13: 0.1, P31: 0.6}
	p := Merge(
		BurstLoss(1, 0, 30*time.Second, m),
		Corruption(2, 5*time.Second, 10*time.Second, 15),
	)
	if err := p.Validate(3); err != nil {
		t.Fatalf("valid burst+corruption plan rejected: %v", err)
	}
	bad := []Plan{
		// Zero-Dur burst window.
		{Events: []Event{{Kind: KindBurstLoss, Node: 1, Loss: m}}},
		// Nested burst windows on one node.
		Merge(BurstLoss(1, 0, 20*time.Second, m), BurstLoss(1, 5*time.Second, 5*time.Second, m)),
		// Invalid GE parameters.
		BurstLoss(1, 0, time.Second, GEModel{PGood: 0.5, PBad: 1.5, P13: 0.1, P31: 0.1}),
		BurstLoss(1, 0, time.Second, GEModel{PGood: 0.01, PBad: 0.3, P13: 0, P31: 0.1}),
		// Zero-Dur corruption window.
		{Events: []Event{{Kind: KindCorrupt, Node: 2, Percent: 10}}},
		// Percent outside (0, 100].
		Corruption(2, 0, time.Second, 0),
		Corruption(2, 0, time.Second, 101),
		// Node out of range.
		BurstLoss(9, 0, time.Second, m),
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Errorf("case %d: invalid plan accepted: %+v", i, p.Events)
		}
	}
}
