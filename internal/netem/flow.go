package netem

import (
	"fmt"
	"math"
	"time"

	"p2psplice/internal/sim"
)

type flowState uint8

const (
	flowSetup flowState = iota // connection establishing, no bytes moving
	flowActive
	flowDone
	flowCancelled
)

// Flow is one TCP-like transfer.
type Flow struct {
	net  *Network
	id   int // network-unique, assigned in creation order
	src  NodeID
	dst  NodeID
	size int64

	state      flowState
	remaining  float64
	rate       float64 // current allocated rate, bytes/s
	rampCap    float64 // slow-start cap, doubles per RTT
	lossCap    float64 // Mathis bound; +Inf when the path is loss-free
	rampMax    float64 // stop ramping once rampCap exceeds this
	rtt        time.Duration
	started    time.Duration // creation time (setup start)
	activated  time.Duration // first payload byte
	lastUpdate time.Duration
	onLinks    bool // joined the link flow lists (reached flowActive)

	// Progress is anchored at the last rate change: remaining(t) is
	// recomputed as anchorRemaining - rate*(t-anchorAt) rather than
	// accumulated, so accrual is exact no matter how often (or rarely) a
	// flow is advanced — the property that lets the incremental
	// reallocator skip clean components entirely.
	anchorAt        time.Duration
	anchorRemaining float64

	// Link adjacency (valid while onLinks): the two access links the flow
	// traverses and its positions in their swap-removed flow lists.
	lup, ldown     *link
	upIdx, downIdx int
	flowsIdx       int // position in net.flows (swap-removed)

	// Transient allocator state, valid only inside a reallocation pass.
	mark        uint64 // collection generation that last visited this flow
	fixMark     uint64 // fill generation that fixed this flow's rate
	pendingRate float64

	frozen      bool // in an RTO freeze; no bytes move
	rampPending bool // a slow-start doubling is scheduled (fired timers are not Cancelled)
	onComplete  func(*Flow)
	flowTimers
}

// flowTimers are a Flow's timers and their callbacks, bound once when the
// Flow is made. They outlive a transfer: the next one the Flow carries
// re-arms the same Timers (see arm).
type flowTimers struct {
	completion, rampTimer, setup, hazardTimer, freezeTimer *sim.Timer

	activateFn, completeFn, hazardFn, rampFn, unfreezeFn func()
}

// TransferOptions tune one transfer.
type TransferOptions struct {
	// ReuseConnection skips the handshake cost, modelling a persistent
	// connection to a peer already contacted.
	ReuseConnection bool
	// Unbounded marks a cross-traffic flow that never completes; size is
	// ignored and OnComplete never fires. Cancel it to remove the load.
	Unbounded bool
}

// StartTransfer begins a transfer of size bytes from src to dst and invokes
// onComplete (which may be nil) from the engine's event context when the
// last byte is delivered.
//
// The returned *Flow is valid until its OnComplete or its Cancel returns.
// The Network then reuses the object for a later transfer, so a holder
// must drop it by that point and never read or cancel it after.
func (n *Network) StartTransfer(src, dst NodeID, size int64, opts TransferOptions, onComplete func(*Flow)) (*Flow, error) {
	if err := n.checkID(src); err != nil {
		return nil, err
	}
	if err := n.checkID(dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, fmt.Errorf("netem: transfer from node %d to itself", src)
	}
	if size <= 0 && !opts.Unbounded {
		return nil, fmt.Errorf("netem: transfer size must be positive, got %d", size)
	}
	if uint64(n.flowSeq) >= 1<<32 {
		return nil, fmt.Errorf("netem: flow ID %d does not fit the 32 bits orderFlows sorts it in", n.flowSeq)
	}

	rtt, err := n.RTT(src, dst)
	if err != nil {
		return nil, err
	}
	if rtt <= 0 {
		rtt = time.Millisecond // avoid division by zero for zero-delay paths
	}
	f := n.reuseFlow()
	if f == nil {
		f = new(Flow)
		f.activateFn, f.completeFn, f.hazardFn, f.rampFn, f.unfreezeFn = f.activate, f.complete, f.hazard, f.ramp, f.unfreeze
	}
	*f = Flow{
		net:        n,
		id:         n.flowSeq,
		src:        src,
		dst:        dst,
		size:       size,
		remaining:  float64(size),
		rtt:        rtt,
		started:    n.eng.Now(),
		lastUpdate: n.eng.Now(),
		onComplete: onComplete,
		flowTimers: f.flowTimers,
	}
	if opts.Unbounded {
		f.remaining = math.Inf(1)
	}
	f.lossCap = n.mathisCap(n.pathLossEventRate(src, dst), rtt)
	// Ramping beyond what the access links can carry is pointless; stop there.
	f.rampMax = math.Min(float64(n.nodes[src].cfg.UplinkBytesPerSec),
		float64(n.nodes[dst].cfg.DownlinkBytesPerSec))
	f.rampCap = float64(n.model.initCwndSegments*n.model.mss) / rtt.Seconds()

	n.flowSeq++
	f.flowsIdx = len(n.flows)
	n.flows = append(n.flows, f)

	setupDelay := time.Duration(0)
	if !opts.ReuseConnection {
		setupDelay = time.Duration(n.model.handshakeRTTs * float64(rtt))
	} else {
		// A request on a warm connection still takes half an RTT to reach
		// the uploader.
		setupDelay = rtt / 2
	}
	f.state = flowSetup
	n.arm(&f.setup, setupDelay, f.activateFn)
	n.emitFlow(f, FlowEventSetup)
	return f, nil
}

// reuseFlow pops a released flow off the free list, or returns nil.
//
//lint:hotpath every transfer start
func (n *Network) reuseFlow() *Flow {
	k := len(n.free) - 1
	if k < 0 {
		return nil
	}
	f := n.free[k]
	n.free[k] = nil
	n.free = n.free[:k]
	return f
}

// release puts f on the free list once OnComplete or Cancel has returned,
// every timer of f off the queue. Cancelling the fired completion keeps
// applyRates' test for a queued completion, not Cancelled, true of the
// next transfer. The previous region may still hold f: mergeFlows says
// why that is harmless.
//
//lint:hotpath once per finished or cancelled transfer
func (n *Network) release(f *Flow) {
	f.completion.Cancel()
	n.free = append(n.free, f)
}

// arm queues fn after delay on the flow timer *t: by Schedule the first
// time, by Reschedule of the same Timer ever after. Both take the same
// seq, so whether a Flow is new or reused moves no sim sequence number.
//
//lint:hotpath every flow timer (re)arm
func (n *Network) arm(t **sim.Timer, delay time.Duration, fn func()) {
	if *t != nil {
		n.eng.Reschedule(*t, delay)
		return
	}
	*t = n.eng.Schedule(delay, fn)
}

// ID returns the network-unique flow identifier (creation order).
func (f *Flow) ID() int { return f.id }

// Frozen reports whether the flow is currently in an RTO freeze. It is a
// pure read: unlike Remaining, it does not advance the flow's progress.
func (f *Flow) Frozen() bool { return f.frozen }

// Size returns the transfer size in bytes.
//
//lint:hotpath simpeer reads relay progress per candidate source
func (f *Flow) Size() int64 { return f.size }

// Remaining returns the bytes not yet transferred.
//
//lint:hotpath simpeer reads relay progress per candidate source
func (f *Flow) Remaining() int64 {
	f.net.advance(f)
	if math.IsInf(f.remaining, 1) {
		return math.MaxInt64
	}
	return int64(math.Ceil(f.remaining))
}

// Elapsed returns how long the flow has existed (setup included) up to its
// completion, cancellation, or the current instant.
func (f *Flow) Elapsed() time.Duration {
	if f.state == flowDone || f.state == flowCancelled {
		return f.lastUpdate - f.started
	}
	return f.net.eng.Now() - f.started
}

// Cancel aborts the flow (peer departure, shutdown). OnComplete does not
// fire. Cancelling a flow inside its own OnComplete is a no-op; after
// Cancel or OnComplete returns, the handle belongs to the Network.
func (f *Flow) Cancel() {
	if f.state == flowDone || f.state == flowCancelled {
		return
	}
	wasActive := f.state == flowActive
	f.net.advance(f)
	f.state = flowCancelled
	f.setup.Cancel()
	f.completion.Cancel()
	f.rampTimer.Cancel()
	f.hazardTimer.Cancel()
	f.freezeTimer.Cancel()
	lup, ldown := f.lup, f.ldown
	f.net.detach(f)
	if wasActive {
		f.net.reallocateOn(lup, ldown)
	}
	f.net.emitFlow(f, FlowEventCancel)
	f.net.release(f)
}

// activate moves the flow from connection setup to data transfer.
func (f *Flow) activate() {
	if f.state != flowSetup {
		return
	}
	f.state = flowActive
	f.activated = f.net.eng.Now()
	f.lastUpdate = f.activated
	f.anchorAt = f.activated
	f.anchorRemaining = f.remaining
	f.onLinks = true
	f.net.graphGen++
	f.lup = f.net.nodes[f.src].up
	f.ldown = f.net.nodes[f.dst].down
	f.upIdx = len(f.lup.flows)
	f.lup.flows = append(f.lup.flows, f)
	f.downIdx = len(f.ldown.flows)
	f.ldown.flows = append(f.ldown.flows, f)
	f.scheduleRamp()
	f.scheduleHazard()
	f.net.reallocateOn(f.lup, f.ldown)
	f.net.emitFlow(f, FlowEventActivate)
}

// scheduleHazard arranges the next RTO check, one second out.
//
//lint:hotpath re-arms every active flow's hazard timer once a second
func (f *Flow) scheduleHazard() {
	if f.net.model.timeoutHazard <= 0 || f.net.model.timeoutMeanFreeze <= 0 {
		return
	}
	f.net.arm(&f.hazardTimer, time.Second, f.hazardFn)
}

// hazard is the RTO check: the flow freezes with probability timeoutHazard
// per flow beyond the penalty-free count on its most crowded link.
func (f *Flow) hazard() {
	if f.state != flowActive {
		return
	}
	f.scheduleHazard()
	if f.frozen {
		return
	}
	crowd := len(f.lup.flows)
	if d := len(f.ldown.flows); d > crowd {
		crowd = d
	}
	excess := crowd - f.net.model.concurrencyFreeFlows
	if excess <= 0 {
		return
	}
	p := f.net.model.timeoutHazard * float64(excess)
	if f.net.eng.RNG().Float64() >= p {
		return
	}
	// Freeze: exponential duration clamped to [0.2s, 8s].
	d := time.Duration(f.net.eng.RNG().ExpFloat64() * float64(f.net.model.timeoutMeanFreeze))
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	if d > 8*time.Second {
		d = 8 * time.Second
	}
	f.frozen = true
	f.net.arm(&f.freezeTimer, d, f.unfreezeFn)
	f.net.reallocateOn(f.lup, f.ldown)
	f.net.emitFlow(f, FlowEventFreeze)
}

// unfreeze ends an RTO freeze.
func (f *Flow) unfreeze() {
	if f.state != flowActive {
		return
	}
	f.frozen = false
	f.net.reallocateOn(f.lup, f.ldown)
	f.net.emitFlow(f, FlowEventUnfreeze)
}

// scheduleRamp arranges the next slow-start doubling. It is re-entered
// when a loss-state change raises a parked flow's Mathis cap, so the
// rampPending guard keeps at most one doubling in flight per flow.
//
//lint:hotpath re-arms the ramp timer at every slow-start doubling
func (f *Flow) scheduleRamp() {
	if f.rampPending || f.rampCap >= f.rampMax || f.rampCap >= f.lossCap {
		return // ramping further would never change the allocation
	}
	f.rampPending = true
	f.net.arm(&f.rampTimer, f.rtt, f.rampFn)
}

// ramp is one slow-start doubling.
func (f *Flow) ramp() {
	f.rampPending = false
	if f.state != flowActive {
		return
	}
	f.rampCap *= 2
	f.scheduleRamp()
	f.net.reallocateOn(f.lup, f.ldown)
	f.net.emitFlow(f, FlowEventRamp)
}

// mathisCap returns the Mathis throughput bound C·MSS/(RTT·sqrt(p)) for
// a path with loss-event rate p, guarding the sqrt(p) denominator: a
// lossless path (p <= 0) or a degenerate input (NaN rate, non-positive
// RTT) yields an unbounded cap instead of an Inf/NaN division.
func (n *Network) mathisCap(p float64, rtt time.Duration) float64 {
	if !(p > 0) || rtt <= 0 {
		return math.Inf(1)
	}
	return n.model.mathisC * float64(n.model.mss) / (rtt.Seconds() * math.Sqrt(p))
}

// capLimit returns the flow's own rate ceiling (slow start, loss model,
// RTO freezes, and administratively-downed links). A zero cap means the
// allocator fixes the flow at rate 0 and cancels its completion timer;
// a later reallocation (link up, freeze end) revives it.
//
//lint:hotpath read once per flow per fill
func (f *Flow) capLimit() float64 {
	if f.frozen || f.net.nodes[f.src].offline || f.net.nodes[f.dst].offline {
		return 0
	}
	return math.Min(f.rampCap, f.lossCap)
}

// LinkDown reports whether either endpoint's link is administratively
// down. Like Frozen, it is a pure read for stall attribution.
func (f *Flow) LinkDown() bool {
	return f.net.nodes[f.src].offline || f.net.nodes[f.dst].offline
}

// complete finishes the flow and notifies the owner.
func (f *Flow) complete() {
	if f.state != flowActive {
		return
	}
	f.net.advance(f)
	f.remaining = 0
	f.state = flowDone
	f.rampTimer.Cancel()
	f.hazardTimer.Cancel()
	f.freezeTimer.Cancel()
	lup, ldown := f.lup, f.ldown
	f.net.detach(f)
	f.net.reallocateOn(lup, ldown)
	f.net.emitFlow(f, FlowEventComplete)
	if f.onComplete != nil {
		f.onComplete(f)
	}
	f.net.release(f)
}

// detach removes the flow from its links and the live list, swapping the
// last element into its slot so removal is O(1) at swarm scale. Only
// flows that reached flowActive ever joined the links.
func (n *Network) detach(f *Flow) {
	if f.onLinks {
		f.lup.removeFlow(f.upIdx)
		f.ldown.removeFlow(f.downIdx)
		f.onLinks = false
		n.graphGen++
	}
	last := len(n.flows) - 1
	moved := n.flows[last]
	n.flows[f.flowsIdx] = moved
	n.flows[last] = nil
	n.flows = n.flows[:last]
	if f.flowsIdx < last {
		moved.flowsIdx = f.flowsIdx
	}
}

// removeFlow swap-removes the flow at index i from the link's flow list
// and fixes up the moved flow's stored position.
func (l *link) removeFlow(i int) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[i] = moved
	l.flows[last] = nil
	l.flows = l.flows[:last]
	if i < last {
		if moved.lup == l {
			moved.upIdx = i
		} else {
			moved.downIdx = i
		}
	}
}

// advance accrues progress for f up to the current instant. Progress is
// recomputed from the last rate-change anchor rather than accumulated,
// so the result is identical no matter how many intermediate events
// called advance — the incremental reallocator relies on this to leave
// flows in clean components untouched.
//
//lint:hotpath under Remaining
func (n *Network) advance(f *Flow) {
	now := n.eng.Now()
	if f.state == flowActive && now > f.anchorAt {
		f.remaining = f.anchorRemaining - f.rate*(now-f.anchorAt).Seconds()
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	if f.state == flowActive || f.state == flowSetup {
		f.lastUpdate = now
	}
}
