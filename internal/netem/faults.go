package netem

import (
	"fmt"
	"time"
)

// SetLinkDown administratively downs (or restores) a node's access
// links. Down links contribute a zero cap to every flow touching the
// node, so those flows freeze in place — bytes already accrued stay
// accrued, completion timers are cancelled, and the next reallocation
// after the link returns revives them. Flow freeze/unfreeze events are
// emitted for the observer so traces show the outage's blast radius.
func (n *Network) SetLinkDown(id NodeID, down bool) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	if n.nodes[id].offline == down {
		return nil
	}
	n.nodes[id].offline = down
	n.reallocateOn(n.nodes[id].up, n.nodes[id].down)
	// Observer contract: emit after the state change and reallocation so
	// rates are current. Only active flows touching the node are
	// affected; a flow whose other endpoint is also down stays frozen on
	// link-up, so skip its unfreeze.
	kind := FlowEventFreeze
	if !down {
		kind = FlowEventUnfreeze
	}
	for _, f := range n.flows {
		if f.state != flowActive || (f.src != id && f.dst != id) {
			continue
		}
		if !down && (f.frozen || f.LinkDown()) {
			continue // still frozen for another reason
		}
		n.emitFlow(f, kind)
	}
	return nil
}

// LinkIsDown reports whether a node's links are administratively down
// (false for an unknown node).
//
//lint:hotpath simpeer asks once per candidate source per pool fill
func (n *Network) LinkIsDown(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes) && n.nodes[id].offline
}

// LinkStep is one point of a link up/down schedule.
type LinkStep struct {
	At   time.Duration
	Down bool
}

// ScheduleLink applies link up/down transitions to a node at the given
// virtual times, mirroring ScheduleBandwidth.
func (n *Network) ScheduleLink(id NodeID, steps []LinkStep) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	for i, s := range steps {
		if s.At < 0 {
			return fmt.Errorf("netem: link step at negative time %v", s.At)
		}
		if i > 0 && s.At <= steps[i-1].At {
			return fmt.Errorf("netem: link step times must be strictly increasing, got %v after %v",
				s.At, steps[i-1].At)
		}
		step := s
		n.eng.At(step.At, func() {
			// Errors are impossible here: id was validated above.
			_ = n.SetLinkDown(id, step.Down)
		})
	}
	return nil
}
