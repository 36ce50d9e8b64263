package netem

import (
	"testing"
	"time"

	"p2psplice/internal/sim"
)

// The flow observer sees the full lifecycle in order, carries stable flow
// IDs, and its presence does not perturb the simulation.
func TestFlowObserverSeesLifecycle(t *testing.T) {
	run := func(observe bool) (events []FlowEvent, doneAt time.Duration) {
		eng := sim.New(3)
		n := newWith(eng, instantSetup())
		a := addNode(t, n, 100_000, 100_000, 0, 0)
		b := addNode(t, n, 50_000, 50_000, 0, 0)
		if observe {
			n.SetFlowObserver(func(ev FlowEvent) { events = append(events, ev) })
		}
		_, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(*Flow) {
			doneAt = eng.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return events, doneAt
	}

	events, doneAt := run(true)
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least setup/activate/complete: %v", len(events), events)
	}
	if events[0].Kind != FlowEventSetup || events[0].At != 0 {
		t.Fatalf("first event = %+v, want setup at t=0", events[0])
	}
	if events[1].Kind != FlowEventActivate {
		t.Fatalf("second event = %+v, want activate", events[1])
	}
	if events[1].Rate <= 0 {
		t.Fatalf("activate carries rate %v, want the post-reallocation rate", events[1].Rate)
	}
	last := events[len(events)-1]
	if last.Kind != FlowEventComplete || last.At != doneAt || last.Remaining != 0 {
		t.Fatalf("last event = %+v, want complete at %v with 0 remaining", last, doneAt)
	}
	for _, ev := range events {
		if ev.Flow != 0 || ev.Src != 0 || ev.Dst != 1 || ev.Size != 100_000 {
			t.Fatalf("event identity wrong: %+v", ev)
		}
	}

	_, plainDone := run(false)
	if plainDone != doneAt {
		t.Fatalf("observer changed completion time: %v vs %v", plainDone, doneAt)
	}
}

// Freeze/unfreeze events fire in RTO-hazard runs, and cancels are observed.
func TestFlowObserverFreezeAndCancel(t *testing.T) {
	eng := sim.New(5)
	cfg := defaultModel
	cfg.concurrencyFreeFlows = 1
	cfg.timeoutHazard = 0.9
	n := newWith(eng, cfg)
	a := addNode(t, n, 50_000, 50_000, 5*time.Millisecond, 0)
	b := addNode(t, n, 50_000, 50_000, 5*time.Millisecond, 0)

	counts := map[FlowEventKind]int{}
	n.SetFlowObserver(func(ev FlowEvent) { counts[ev.Kind]++ })

	var flows []*Flow
	for i := 0; i < 4; i++ {
		f, err := n.StartTransfer(a, b, 5_000_000, TransferOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	eng.RunUntil(20 * time.Second)
	if counts[FlowEventFreeze] == 0 {
		t.Fatal("no freeze events under a near-certain RTO hazard")
	}
	flows[0].Cancel()
	eng.RunUntil(21 * time.Second)
	if counts[FlowEventCancel] != 1 {
		t.Fatalf("cancel events = %d, want 1", counts[FlowEventCancel])
	}
}

// Slow-start doublings are observable on a link fast enough to ramp into.
func TestFlowObserverSeesRamps(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := addNode(t, n, 10_000_000, 10_000_000, 50*time.Millisecond, 0)
	b := addNode(t, n, 10_000_000, 10_000_000, 50*time.Millisecond, 0)
	ramps := 0
	n.SetFlowObserver(func(ev FlowEvent) {
		if ev.Kind == FlowEventRamp {
			ramps++
		}
	})
	if _, err := n.StartTransfer(a, b, 20_000_000, TransferOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if ramps == 0 {
		t.Fatal("no ramp events for a slow-starting flow")
	}
}

// Flow IDs are unique and stable in creation order.
func TestFlowIDsAreCreationOrdered(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	for i := 0; i < 3; i++ {
		f, err := n.StartTransfer(a, b, 1000, TransferOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != i {
			t.Fatalf("flow %d has ID %d", i, f.ID())
		}
		if f.Frozen() {
			t.Fatal("fresh flow reports frozen")
		}
	}
}
