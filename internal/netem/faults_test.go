package netem

import (
	"math/rand"
	"testing"
	"time"

	"p2psplice/internal/sim"
)

func TestLinkDownFreezesAndRevivesFlow(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)

	var doneAt time.Duration
	f, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(*Flow) {
		doneAt = eng.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Down b's link from t=0.5s to t=1.5s: the 1s transfer pauses with
	// half its bytes moved and finishes 1s late.
	eng.At(500*time.Millisecond, func() { _ = n.SetLinkDown(b, true) })
	eng.At(1500*time.Millisecond, func() { _ = n.SetLinkDown(b, false) })
	eng.At(time.Second, func() {
		if !f.LinkDown() {
			t.Error("flow should report LinkDown mid-outage")
		}
		if f.rate != 0 {
			t.Errorf("downed flow has rate %v, want 0", f.rate)
		}
		if rem := f.Remaining(); rem < 45_000 || rem > 55_000 {
			t.Errorf("remaining %d mid-outage, want ~50000 (progress must freeze, not reset)", rem)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := 2 * time.Second
	if diff := (doneAt - want).Abs(); diff > 10*time.Millisecond {
		t.Errorf("completed at %v, want ~%v (1s transfer + 1s outage)", doneAt, want)
	}
	if f.LinkDown() {
		t.Error("flow reports LinkDown after recovery")
	}
}

func TestSetLinkDownEmitsFreezeEvents(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	c := addNode(t, n, 100_000, 100_000, 0, 0)

	var events []FlowEvent
	n.SetFlowObserver(func(ev FlowEvent) { events = append(events, ev) })

	fab, err := n.StartTransfer(a, b, 1_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartTransfer(a, c, 1_000_000, TransferOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	eng.At(100*time.Millisecond, func() {
		if err := n.SetLinkDown(b, true); err != nil {
			t.Error(err)
		}
		if !n.LinkIsDown(b) {
			t.Error("LinkIsDown(b) false after SetLinkDown")
		}
	})
	eng.At(200*time.Millisecond, func() {
		if err := n.SetLinkDown(b, false); err != nil {
			t.Error(err)
		}
		// Idempotence: restoring an up link emits nothing and errs nothing.
		if err := n.SetLinkDown(b, false); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(300 * time.Millisecond)
	freezes, unfreezes := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case FlowEventFreeze:
			freezes++
			if ev.Flow != fab.ID() {
				t.Errorf("freeze emitted for flow %d; only the a→b flow touches b", ev.Flow)
			}
		case FlowEventUnfreeze:
			unfreezes++
		}
	}
	if freezes != 1 || unfreezes != 1 {
		t.Errorf("got %d freezes / %d unfreezes, want 1 / 1", freezes, unfreezes)
	}
}

func TestLinkDownUnknownNode(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	if err := n.SetLinkDown(5, true); err == nil {
		t.Error("SetLinkDown on unknown node must error")
	}
	if n.LinkIsDown(5) {
		t.Error("LinkIsDown on unknown node must be false")
	}
}

// TestFreezeEventsBracketStops holds the freeze and unfreeze events to the
// time a flow is stopped, by an RTO or a downed link: for each flow they
// alternate, starting with a freeze, and no unfreeze is emitted while the
// flow's link is down. The first run is the probe that showed the
// mistake: a flow that RTO-freezes at 1 s and whose downlink goes down at
// 1.05 s for 19 s. The others flap random links under a certain RTO
// hazard, so freezes and outages overlap every way, both endpoints go
// down together, and flows activate while their link is down.
func TestFreezeEventsBracketStops(t *testing.T) {
	type (
		start struct {
			src, dst NodeID
			at       time.Duration
		}
		flap struct {
			node     NodeID
			at, span time.Duration
		}
	)
	run := func(seed int64, nodes int, starts []start, flaps []flap) {
		eng := sim.New(seed)
		cfg := defaultModel
		cfg.handshakeRTTs = 0
		cfg.timeoutHazard = 1
		cfg.concurrencyFreeFlows = 0
		n := newWith(eng, cfg)
		for i := 0; i < nodes; i++ {
			addNode(t, n, 100_000, 100_000, 10*time.Millisecond, 0)
		}
		stopped := map[int]bool{} // by flow ID: its last event of the two was a freeze
		freezes := 0
		n.SetFlowObserver(func(ev FlowEvent) {
			switch ev.Kind {
			case FlowEventFreeze:
				if stopped[ev.Flow] {
					t.Errorf("seed %d: flow %d frozen again at %v without an unfreeze", seed, ev.Flow, ev.At)
				}
				stopped[ev.Flow] = true
				freezes++
			case FlowEventUnfreeze:
				if !stopped[ev.Flow] {
					t.Errorf("seed %d: flow %d unfrozen at %v without a freeze", seed, ev.Flow, ev.At)
				}
				if n.LinkIsDown(ev.Src) || n.LinkIsDown(ev.Dst) {
					t.Errorf("seed %d: flow %d unfrozen at %v while its link is down (rate %v)", seed, ev.Flow, ev.At, ev.Rate)
				}
				stopped[ev.Flow] = false
			}
		})
		for _, s := range starts {
			eng.At(s.at, func() {
				if _, err := n.StartTransfer(s.src, s.dst, 2_000_000, TransferOptions{}, nil); err != nil {
					t.Error(err)
				}
			})
		}
		for _, f := range flaps {
			eng.At(f.at, func() { _ = n.SetLinkDown(f.node, true) })
			eng.At(f.at+f.span, func() { _ = n.SetLinkDown(f.node, false) })
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		if freezes == 0 {
			t.Errorf("seed %d: no freeze event", seed)
		}
	}
	run(1, 2, []start{{0, 1, 0}}, []flap{{1, 1050 * time.Millisecond, 19 * time.Second}})
	for seed := int64(2); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var starts []start
		var flaps []flap
		for i := 0; i < 8; i++ {
			src := NodeID(r.Intn(4))
			starts = append(starts, start{src, (src + NodeID(1+r.Intn(3))) % 4, time.Duration(r.Intn(20)) * 250 * time.Millisecond})
		}
		for i := 0; i < 6; i++ {
			flaps = append(flaps, flap{NodeID(r.Intn(4)), time.Duration(r.Intn(400)) * 50 * time.Millisecond, time.Duration(1+r.Intn(100)) * 50 * time.Millisecond})
		}
		run(seed, 4, starts, flaps)
	}
}
