package netem

import (
	"fmt"
	"math"
	"math/rand"
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

// remainingCheck is a flow observer that holds every event's Remaining to
// the flow's remaining bytes at the event's instant, as effRemaining
// projects them from the anchor. It keeps the first mismatch in err.
type remainingCheck struct {
	net   *Network
	flows map[int]*Flow // by ID; a setup event names the flow just appended to net.flows
	// events counts the events checked; stale, those whose flow's stored
	// remaining was not its value at the event, so a raw read would be wrong.
	events, stale int
	err           error
}

func (c *remainingCheck) observe(ev FlowEvent) {
	if c.flows == nil {
		c.flows = map[int]*Flow{}
	}
	if ev.Kind == FlowEventSetup {
		c.flows[ev.Flow] = c.net.flows[len(c.net.flows)-1]
	}
	f := c.flows[ev.Flow]
	r := effRemaining(f, ev.At)
	want := int64(-1)
	if !math.IsInf(r, 1) {
		want = int64(math.Ceil(r))
	}
	c.events++
	if math.Float64bits(f.remaining) != math.Float64bits(r) {
		c.stale++
	}
	if (f.id != ev.Flow || ev.Remaining != want) && c.err == nil {
		c.err = fmt.Errorf("flow %d event %d reports %d remaining, its projected remaining is %d (flow object carries ID %d)", ev.Flow, ev.Kind, ev.Remaining, want, f.id)
	}
}

// TestFlowObserverIsInert runs randomized differential scripts with an
// observer on the incremental network and none on the full oracle. The
// pair is compared after every event — rates and anchors bit for bit,
// clocks and pending-event counts — so an observer that moved anything
// would split it. Every event must also report the flow's remaining at its
// instant: a reallocation advances only the flows whose rate it changes,
// so for the rest the stored value is as old as their anchor, and the
// stale count shows the scripts reach that case.
func TestFlowObserverIsInert(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var events, stale int
	for i := 0; i < 300; i++ {
		var obs remainingCheck
		if err := differentialScriptWith(randomScript(r, 40+r.Intn(200)), (*Network).fillComponent, regionMutant{}, &obs); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
		events, stale = events+obs.events, stale+obs.stale
	}
	if events == 0 || stale == 0 {
		t.Fatalf("%d events observed, %d of them with a stale stored remaining: the scripts do not reach the projection", events, stale)
	}
	t.Logf("%d events observed, %d with a stale stored remaining", events, stale)
}
