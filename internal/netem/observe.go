package netem

import (
	"math"
	"time"
)

// FlowEventKind classifies a flow lifecycle event.
type FlowEventKind uint8

const (
	// FlowEventSetup fires when a transfer is created (handshake begins).
	FlowEventSetup FlowEventKind = iota
	// FlowEventActivate fires when the first payload byte can move.
	FlowEventActivate
	// FlowEventFreeze fires when an RTO freeze or a downed link stops a
	// moving flow, or a flow activates on a downed link.
	FlowEventFreeze
	// FlowEventUnfreeze fires when a stopped flow moves again: its RTO
	// freeze ends or its link comes back, and nothing else stops it.
	// Freezes and unfreezes of one flow alternate.
	FlowEventUnfreeze
	// FlowEventRamp fires at each slow-start doubling.
	FlowEventRamp
	// FlowEventComplete fires when the last byte is delivered.
	FlowEventComplete
	// FlowEventCancel fires when the flow is aborted.
	FlowEventCancel
)

// FlowEvent is one flow lifecycle notification, delivered synchronously
// from the engine's event context.
type FlowEvent struct {
	At   time.Duration
	Kind FlowEventKind
	// Flow is the network-unique flow ID (creation order).
	Flow int
	Src  NodeID
	Dst  NodeID
	Size int64
	// Rate is the allocated rate in bytes/s at the time of the event.
	Rate float64
	// Remaining is the unsent byte count at At, rounded up, or -1 for
	// unbounded flows.
	Remaining int64
}

// SetFlowObserver registers fn to receive every flow lifecycle event.
// The observer is a pure listener for instrumentation: it runs after the
// state change (and any reallocation) is applied and must not start,
// cancel, or otherwise mutate flows or the engine, so that runs are
// identical with and without it. Pass nil to remove the observer.
func (n *Network) SetFlowObserver(fn func(FlowEvent)) { n.onFlow = fn }

// emitFlow notifies the observer, if any. A reallocation advances only
// the flows whose rate it changes, so the stored remaining may be as old
// as the flow's anchor: emitFlow projects it to now with remainingAt and,
// as the observer contract asks, leaves the flow as it found it.
func (n *Network) emitFlow(f *Flow, kind FlowEventKind) {
	if n.onFlow == nil {
		return
	}
	remaining := int64(-1)
	if r := f.remainingAt(n.eng.Now()); !math.IsInf(r, 1) {
		remaining = int64(math.Ceil(r))
	}
	n.onFlow(FlowEvent{
		At:        n.eng.Now(),
		Kind:      kind,
		Flow:      f.id,
		Src:       f.src,
		Dst:       f.dst,
		Size:      f.size,
		Rate:      f.rate,
		Remaining: remaining,
	})
}
