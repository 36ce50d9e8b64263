package netem

// SetLinkDown administratively downs (or restores) a node's access
// links. Down links contribute a zero cap to every flow touching the
// node, so those flows freeze in place — bytes already accrued stay
// accrued, completion timers are cancelled, and the next reallocation
// after the link returns revives them. Flow freeze/unfreeze events are
// emitted for the observer so traces show the outage's blast radius: a
// freeze for each flow the outage stops, an unfreeze for each it restarts.
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
	// affected, and only those that were moving (down) or now move (up):
	// an RTO freeze or the other endpoint's outage stops one either way.
	kind := FlowEventFreeze
	if !down {
		kind = FlowEventUnfreeze
	}
	for _, f := range n.flows {
		if f.state != flowActive || (f.src != id && f.dst != id) {
			continue
		}
		other := f.src
		if other == id {
			other = f.dst
		}
		if f.frozen || n.nodes[other].offline {
			continue // stopped for another reason
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
