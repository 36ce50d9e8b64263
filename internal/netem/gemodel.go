package netem

import (
	"fmt"
	"math"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/sim"
)

// Gilbert–Elliott two-state burst-loss model. Real access links do not
// drop packets i.i.d.: loss arrives in bursts when a link degrades (the
// "bad" state) separated by long quiet stretches (the "good" state).
// The model is a continuous-time two-state Markov chain per node: while
// installed it replaces the node's configured baseline loss rate with
// the state-dependent rate (PGood or PBad), and the chain's transitions
// advance on the engine clock from the seeded deterministic RNG, so
// runs are reproducible and the incremental/full differential harness
// can drive both networks through identical transition sequences. The
// parameters are a fault.GEModel, the type a KindBurstLoss window
// carries.

// geState is a node's live Gilbert–Elliott chain. Replacing or clearing
// the model swaps the whole struct, so a stale transition timer can
// recognize itself (nd.ge != g) and fall dead.
type geState struct {
	params fault.GEModel
	bad    bool
	timer  *sim.Timer
}

// SetGEModel installs (or replaces) a Gilbert–Elliott loss model on a
// node, starting in the good state. The node's baseline LossRate is
// shadowed until ClearGEModel; flows touching the node have their
// Mathis caps re-derived immediately and on every state transition.
func (n *Network) SetGEModel(id NodeID, p fault.GEModel) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("netem: node %d: %w", id, err)
	}
	nd := n.nodes[id]
	if nd.ge != nil {
		nd.ge.timer.Cancel()
	}
	nd.ge = &geState{params: p}
	n.refreshLossOn(nd)
	n.scheduleGETransition(nd, nd.ge)
	n.emitLossState(nd)
	return nil
}

// ClearGEModel removes a node's loss model, restoring the configured
// baseline loss rate. Clearing a node without a model is a no-op.
func (n *Network) ClearGEModel(id NodeID) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	nd := n.nodes[id]
	if nd.ge == nil {
		return nil
	}
	nd.ge.timer.Cancel()
	nd.ge = nil
	n.refreshLossOn(nd)
	n.emitLossState(nd)
	return nil
}

// LossStateBad reports whether a node's Gilbert–Elliott chain is
// currently in the bad (bursting) state. Like Flow.Frozen it is a pure
// read, safe for stall attribution.
func (n *Network) LossStateBad(id NodeID) bool {
	if n.checkID(id) != nil {
		return false
	}
	nd := n.nodes[id]
	return nd.ge != nil && nd.ge.bad
}

// scheduleGETransition arranges the chain's next state flip: an
// exponential sojourn at the current state's hazard, clamped to at
// least a millisecond so degenerate hazards cannot flood the event
// queue with zero-delay flips.
func (n *Network) scheduleGETransition(nd *node, g *geState) {
	hazard := g.params.P13
	if g.bad {
		hazard = g.params.P31
	}
	d := seconds(n.eng.RNG().ExpFloat64() / hazard)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	g.timer = n.eng.Schedule(d, func() {
		if nd.ge != g {
			return // model replaced or cleared since this was scheduled
		}
		g.bad = !g.bad
		n.refreshLossOn(nd)
		n.scheduleGETransition(nd, g)
		n.emitLossState(nd)
	})
}

// refreshLossOn re-derives the Mathis cap of every flow touching the
// node's links after its effective loss rate changed, restarts
// slow-start ramps that had parked against a now-raised cap, and
// reallocates with the node's two links as the dirty set — a
// loss-state flip dirties exactly that node's links, nothing else.
func (n *Network) refreshLossOn(nd *node) {
	for _, l := range []*link{nd.up, nd.down} {
		for _, f := range l.flows {
			c := n.mathisCap(n.pathLossEventRate(f.src, f.dst), f.rtt)
			if math.Float64bits(c) == math.Float64bits(f.lossCap) {
				continue
			}
			grew := c > f.lossCap
			f.lossCap = c
			if grew {
				// scheduleRamp stops permanently once rampCap reaches the
				// cap; a raised cap must restart it or the flow would stay
				// stuck at the bad-state ceiling after the burst ends.
				f.scheduleRamp()
			}
		}
	}
	n.reallocateOn(nd.up, nd.down)
}

// LossStateEvent is one Gilbert–Elliott transition notification (also
// fired on model install and clear), delivered synchronously from the
// engine's event context.
type LossStateEvent struct {
	At   time.Duration
	Node NodeID
	// Bad is the chain's state after the transition (false on clear).
	Bad bool
	// Loss is the node's effective packet-loss rate after the transition.
	Loss float64
}

// SetLossStateObserver registers fn to receive every loss-state
// transition. Like SetFlowObserver it is a pure listener: it must not
// mutate the network or engine, so runs are identical with and without
// it. Pass nil to remove the observer.
func (n *Network) SetLossStateObserver(fn func(LossStateEvent)) { n.onLossState = fn }

// emitLossState notifies the loss-state observer, if any.
func (n *Network) emitLossState(nd *node) {
	if n.onLossState == nil {
		return
	}
	n.onLossState(LossStateEvent{
		At:   n.eng.Now(),
		Node: nd.id,
		Bad:  nd.ge != nil && nd.ge.bad,
		Loss: nd.lossRate(),
	})
}
