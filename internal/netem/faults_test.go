package netem

import (
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
