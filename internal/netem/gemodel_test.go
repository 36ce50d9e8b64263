package netem

import (
	"math"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/sim"
)

func geTestNet(t *testing.T, loss float64) (*sim.Engine, *Network, NodeID, NodeID) {
	t.Helper()
	eng := sim.New(11)
	n := New(eng)
	a, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1_000_000, DownlinkBytesPerSec: 1_000_000,
		AccessDelay: 25 * time.Millisecond, LossRate: loss})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1_000_000, DownlinkBytesPerSec: 1_000_000,
		AccessDelay: 25 * time.Millisecond, LossRate: loss})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n, a, b
}

// TestGEParamsValidate runs each model through SetGEModel, which
// installs the valid one and refuses the invalid ones (fault.GEModel.Validate).
func TestGEParamsValidate(t *testing.T) {
	_, n, a, _ := geTestNet(t, 0)
	ok := fault.GEModel{PGood: 0.005, PBad: 0.32, P13: 0.1, P31: 0.6}
	if err := n.SetGEModel(a, ok); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []fault.GEModel{
		{PGood: -0.1, PBad: 0.3, P13: 0.1, P31: 0.6},
		{PGood: 0.01, PBad: 1.0, P13: 0.1, P31: 0.6},
		{PGood: 0.01, PBad: 0.3, P13: 0, P31: 0.6},
		{PGood: 0.01, PBad: 0.3, P13: 0.1, P31: -1},
	}
	for i, p := range bad {
		if err := n.SetGEModel(a, p); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, p)
		}
	}
	if err := n.SetGEModel(a, fault.GEModel{}); err == nil {
		t.Error("SetGEModel accepted zero params")
	}
	if err := n.SetGEModel(NodeID(99), ok); err == nil {
		t.Error("SetGEModel accepted unknown node")
	}
}

// TestMathisCapGuard is the sqrt(p) denominator guard: a lossless path
// must yield an unbounded cap, not an Inf/NaN division artifact.
func TestMathisCapGuard(t *testing.T) {
	_, n, a, b := geTestNet(t, 0)
	for _, p := range []float64{0, -0.5, math.NaN()} {
		if c := n.mathisCap(p, 100*time.Millisecond); !math.IsInf(c, 1) {
			t.Errorf("mathisCap(%v) = %v, want +Inf", p, c)
		}
	}
	if c := n.mathisCap(0.01, 0); !math.IsInf(c, 1) {
		t.Errorf("mathisCap with zero RTT = %v, want +Inf", c)
	}
	if c := n.mathisCap(0.01, 100*time.Millisecond); math.IsInf(c, 1) || math.IsNaN(c) || c <= 0 {
		t.Errorf("mathisCap(0.01) = %v, want a finite positive bound", c)
	}
	f, err := n.StartTransfer(a, b, 1_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f.lossCap, 1) {
		t.Errorf("lossless flow lossCap = %v, want +Inf", f.lossCap)
	}
}

// TestGEFlipRefreshesMathisCap is the mid-flow refresh bugfix: a
// loss-state change must re-derive the Mathis cap of flows already on
// the node's links (it used to be computed once at StartTransfer) and
// restart a parked slow-start ramp when the cap rises again.
func TestGEFlipRefreshesMathisCap(t *testing.T) {
	eng, n, a, b := geTestNet(t, 0)
	f, err := n.StartTransfer(a, b, 50_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second) // active, fully ramped, unconstrained by loss
	if f.state != flowActive {
		t.Fatalf("flow state %d, want active", f.state)
	}
	if err := n.SetGEModel(a, fault.GEModel{PGood: 0, PBad: 0.4, P13: 0.1, P31: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f.lossCap, 1) {
		t.Fatalf("good-state (pg=0) lossCap = %v, want +Inf", f.lossCap)
	}
	goodRate := f.rate

	// Force the bad state deterministically (the chain's own flips are
	// exponential draws) and refresh the way a transition does.
	n.nodes[a].ge.bad = true
	n.refreshLossOn(n.nodes[a])
	if math.IsInf(f.lossCap, 1) {
		t.Fatal("bad-state flip did not refresh the flow's Mathis cap")
	}
	if f.rate >= goodRate {
		t.Fatalf("bad-state rate %.0f not below good-state rate %.0f", f.rate, goodRate)
	}
	// The low cap parks the ramp; collapse rampCap below it to prove the
	// good-state refresh restarts ramping rather than leaving the flow
	// stuck at the bad-state ceiling.
	f.rampCap = f.lossCap / 4
	f.rampPending = false

	n.nodes[a].ge.bad = false
	n.refreshLossOn(n.nodes[a])
	if !math.IsInf(f.lossCap, 1) {
		t.Fatal("good-state flip did not restore the unbounded cap")
	}
	if !f.rampPending {
		t.Fatal("raised cap did not restart the slow-start ramp")
	}
	eng.RunUntil(eng.Now() + 10*time.Second)
	if f.rate < goodRate*0.9 {
		t.Fatalf("flow stuck at %.0f B/s after burst ended, want ~%.0f", f.rate, goodRate)
	}
}

// A sojourn longer than virtual time can hold saturates instead of
// wrapping negative and being clamped to the 1 ms floor: with hazards of
// one flip per ~30 million years the chain stays put.
func TestGESojournSaturates(t *testing.T) {
	eng, n, a, _ := geTestNet(t, 0)
	flips := 0
	n.SetLossStateObserver(func(LossStateEvent) { flips++ })
	if err := n.SetGEModel(a, fault.GEModel{PGood: 0, PBad: 0.5, P13: 1e-15, P31: 1e-15}); err != nil {
		t.Fatal(err)
	}
	flips = 0 // installing the model reports its initial state
	eng.RunUntil(time.Second)
	if flips != 0 || n.LossStateBad(a) {
		t.Fatalf("chain flipped %d times in 1s (bad=%v), want none", flips, n.LossStateBad(a))
	}
}

// TestGETransitionsAreObservable drives the chain from the seeded RNG
// and checks the pure observer sees both states with the right rates.
func TestGETransitionsAreObservable(t *testing.T) {
	eng, n, a, _ := geTestNet(t, 0.05)
	var evs []LossStateEvent
	n.SetLossStateObserver(func(ev LossStateEvent) { evs = append(evs, ev) })
	gp := fault.GEModel{PGood: 0.005, PBad: 0.32, P13: 2, P31: 4}
	if err := n.SetGEModel(a, gp); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	var sawGood, sawBad bool
	for _, ev := range evs {
		if ev.Node != a {
			t.Fatalf("event for node %d, want %d", ev.Node, a)
		}
		if ev.Bad {
			sawBad = true
			if ev.Loss != gp.PBad {
				t.Fatalf("bad-state loss %v, want %v", ev.Loss, gp.PBad)
			}
		} else {
			sawGood = true
			if ev.Loss != gp.PGood {
				t.Fatalf("good-state loss %v, want %v", ev.Loss, gp.PGood)
			}
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("expected both states in 30s (good=%v bad=%v, %d events)", sawGood, sawBad, len(evs))
	}
	if !n.LossStateBad(a) && !sawBad {
		t.Fatal("no bad state ever reached")
	}
	// Clearing restores the baseline and emits a final good-state event.
	evs = nil
	if err := n.ClearGEModel(a); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Bad || evs[0].Loss != 0.05 {
		t.Fatalf("clear event = %+v, want good state at baseline 0.05", evs)
	}
	if err := n.ClearGEModel(a); err != nil {
		t.Fatalf("double clear: %v", err)
	}
}
