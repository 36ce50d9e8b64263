// Package netem emulates the paper's GENI testbed: a star topology of nodes
// with shaped access links (bandwidth, latency, loss), carrying TCP-like
// transfers between peers.
//
// It is a flow-level model on top of the discrete-event engine in
// internal/sim: each segment download is a flow; active flows share link
// capacity max-min fairly, and each flow is additionally capped by a TCP
// model — connection setup costs 1.5 RTT, throughput ramps like slow start
// (doubling per RTT from an initial window), and sustained throughput under
// path loss follows the Mathis bound C·MSS/(RTT·sqrt(p)). These are exactly
// the mechanisms behind the paper's observations: many small segments pay
// per-connection setup ("many small TCP connections that create congestion"),
// and high-latency/lossy paths cap per-flow throughput so the download-pool
// size matters.
package netem

import (
	"fmt"
	"time"

	"p2psplice/internal/sim"
)

// NodeID identifies a node in the emulated network.
type NodeID int

// model holds the TCP model parameters. They are constants of the
// emulation, calibrated once against the paper's testbed: every network
// starts from defaultModel, and only this package's tests vary a field,
// to isolate one mechanism.
type model struct {
	// mss is the TCP maximum segment size in bytes.
	mss int
	// initCwndSegments is the initial congestion window in MSS units
	// (RFC 6928 initial window).
	initCwndSegments int
	// mathisC is the constant in the Mathis throughput bound.
	mathisC float64
	// lossEventFactor converts a raw packet-loss rate into the TCP
	// loss-*event* rate used by the Mathis bound; modern stacks with SACK
	// recover several drops per loss event, so the event rate is well below
	// the packet-drop rate. 0.125 is calibrated so that one flow over
	// the paper's 5%-loss, 100 ms-RTT path sustains ~160 kB/s — enough to
	// carry the paper's 128 kB/s clip on one connection (as its testbed
	// evidently did) while still capping per-flow throughput well below the
	// faster links, which is what makes the download-pool size matter.
	lossEventFactor float64
	// handshakeRTTs is the connection-establishment cost in RTTs before the
	// first payload byte (TCP handshake plus the request).
	handshakeRTTs float64
	// concurrencyPenalty models the aggregate goodput loss of running many
	// simultaneous TCP flows through a small-buffer shaped link (retransmit
	// waste, synchronized losses): a link carrying n flows delivers
	// capacity / (1 + concurrencyPenalty*max(0, n-concurrencyFreeFlows)).
	// This is the "large pool size increases the network overload ... which
	// increases the stalls" mechanism in the paper's Figure 5 discussion.
	concurrencyPenalty float64
	// concurrencyFreeFlows is the number of concurrent flows a link carries
	// without degradation (shaper buffers absorb a few flows cleanly).
	concurrencyFreeFlows int
	// timeoutHazard is the per-second probability (per excess flow beyond
	// concurrencyFreeFlows on the flow's most crowded link) that a flow
	// suffers a retransmission timeout and freezes. RTOs — not smooth
	// goodput loss — are how overloading a small-buffer shaped link with
	// many TCP flows actually manifests: individual transfers stall for
	// seconds. Zero disables.
	timeoutHazard float64
	// timeoutMeanFreeze is the mean duration of an RTO freeze (exponential,
	// clamped to [0.2s, 8s]). Zero disables freezing.
	timeoutMeanFreeze time.Duration
}

var defaultModel = model{
	mss:                  1460,
	initCwndSegments:     10,
	mathisC:              1.22,
	lossEventFactor:      0.125,
	handshakeRTTs:        1.5,
	concurrencyPenalty:   0.1,
	concurrencyFreeFlows: 3,
	timeoutHazard:        0.05,
	timeoutMeanFreeze:    1500 * time.Millisecond,
}

// NodeConfig describes one node's access link in the star topology.
type NodeConfig struct {
	// UplinkBytesPerSec and DownlinkBytesPerSec shape the access link.
	// Both must be positive.
	UplinkBytesPerSec   int64
	DownlinkBytesPerSec int64
	// AccessDelay is the one-way delay from the node to the star's hub.
	// The one-way delay between nodes a and b is a.AccessDelay +
	// b.AccessDelay (the paper's 50 ms peer latency corresponds to 25 ms
	// access delay on each side).
	AccessDelay time.Duration
	// LossRate is the packet loss probability on the access link in [0, 1).
	LossRate float64
}

// Validate reports whether the node configuration is usable.
func (nc NodeConfig) Validate() error {
	if nc.UplinkBytesPerSec <= 0 || nc.DownlinkBytesPerSec <= 0 {
		return fmt.Errorf("netem: link rates must be positive, got up=%d down=%d",
			nc.UplinkBytesPerSec, nc.DownlinkBytesPerSec)
	}
	if nc.AccessDelay < 0 {
		return fmt.Errorf("netem: negative access delay %v", nc.AccessDelay)
	}
	if nc.LossRate < 0 || nc.LossRate >= 1 {
		return fmt.Errorf("netem: loss rate %v outside [0, 1)", nc.LossRate)
	}
	return nil
}

// Network is the emulated star network. It is single-threaded: all methods
// must be called from the owning sim.Engine's event context (or before Run).
type Network struct {
	eng     *sim.Engine
	model   model
	nodes   []*node
	flows   []*Flow // live flows; swap-removed on detach (order not load-bearing)
	free    []*Flow // released flows, their timers kept, for StartTransfer to reuse
	flowSeq int     // next flow ID
	onFlow  func(FlowEvent)
	// onLossState observes Gilbert–Elliott transitions (gemodel.go).
	onLossState func(LossStateEvent)

	// allocGen stamps the marks of the full pass's walk and the split
	// search (stale marks never compare equal), fillGen the rates a pass
	// fixed. spareComps is the free list of emptied components; the rest
	// is scratch that grows once to its high-water mark.
	allocGen, fillGen uint64

	spareComps  []*component
	regionLinks []*link // reallocateFull: the components walked, one after another,
	regionFlows []*Flow // delimited by compBounds
	compBounds  []compBound
	linkQueue   []*link   // the full pass's walk; the split search's up side
	sideQueue   []*link   // the split search's down side
	mergedFlows []*Flow   // a pass over two components: their flows merged in ID order
	liveFlows   []int32   // fillComponent: the flows the cap scan still checks
	flowCaps    []float64 // fillComponent: capLimit per flow, read once per pass
	stats       AllocStats
	forceFull   bool // reallocate via the full per-event oracle instead
	// Set only by tests: passHook runs before the fill of every incremental
	// pass that has a live dirty link, memberHook after every join and leave.
	passHook   func(a, b *link)
	memberHook func(f *Flow, joined bool)
}

type node struct {
	id      NodeID
	cfg     NodeConfig
	up      *link
	down    *link
	offline bool     // link administratively down; flows touching it freeze
	ge      *geState // installed Gilbert–Elliott loss model, nil for baseline
}

// lossRate returns the node's effective packet-loss rate: the installed
// Gilbert–Elliott model's state-dependent rate while one is active, the
// configured baseline otherwise.
func (nd *node) lossRate() float64 {
	if nd.ge != nil {
		if nd.ge.bad {
			return nd.ge.params.PBad
		}
		return nd.ge.params.PGood
	}
	return nd.cfg.LossRate
}

type link struct {
	ord      int        // creation order: node ID doubled, uplink before downlink
	capacity float64    // bytes per second
	flows    []*Flow    // active flows traversing this link (swap-removed)
	comp     *component // the component of its flows; nil while it has none

	// Transient allocator state, valid only inside a reallocation pass.
	mark      uint64  // generation of the walk or split search that last visited this link
	remaining float64 // capacity left during progressive filling
	unfixed   int     // flows not yet fixed during progressive filling
	share     float64 // remaining / unfixed, +Inf once unfixed is 0
}

// New creates an empty network on eng.
func New(eng *sim.Engine) *Network {
	if eng == nil {
		panic("netem: nil engine")
	}
	return &Network{eng: eng, model: defaultModel}
}

// AddNode registers a node and returns its ID.
func (n *Network) AddNode(nc NodeConfig) (NodeID, error) {
	if err := nc.Validate(); err != nil {
		return 0, err
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &node{
		id:   id,
		cfg:  nc,
		up:   &link{ord: 2 * int(id), capacity: float64(nc.UplinkBytesPerSec)},
		down: &link{ord: 2*int(id) + 1, capacity: float64(nc.DownlinkBytesPerSec)},
	})
	return id, nil
}

func (n *Network) checkID(id NodeID) error {
	if id < 0 || int(id) >= len(n.nodes) {
		return fmt.Errorf("netem: unknown node %d", id)
	}
	return nil
}

// OneWayDelay returns the one-way propagation delay between a and b.
func (n *Network) OneWayDelay(a, b NodeID) (time.Duration, error) {
	if err := n.checkID(a); err != nil {
		return 0, err
	}
	if err := n.checkID(b); err != nil {
		return 0, err
	}
	return n.nodes[a].cfg.AccessDelay + n.nodes[b].cfg.AccessDelay, nil
}

// RTT returns the round-trip time between a and b.
func (n *Network) RTT(a, b NodeID) (time.Duration, error) {
	ow, err := n.OneWayDelay(a, b)
	return 2 * ow, err
}

// pathLossEventRate returns the TCP loss-event rate along a->b, from
// each endpoint's effective (loss-model-aware) loss rate.
func (n *Network) pathLossEventRate(a, b NodeID) float64 {
	raw := 1 - (1-n.nodes[a].lossRate())*(1-n.nodes[b].lossRate())
	return raw * n.model.lossEventFactor
}

// SetUplink changes a node's uplink capacity (the paper's future-work
// "variable bandwidth" case) and reallocates active flows.
func (n *Network) SetUplink(id NodeID, bytesPerSec int64) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	if bytesPerSec <= 0 {
		return fmt.Errorf("netem: uplink rate must be positive, got %d", bytesPerSec)
	}
	n.nodes[id].cfg.UplinkBytesPerSec = bytesPerSec
	n.nodes[id].up.capacity = float64(bytesPerSec)
	n.reallocateOn(n.nodes[id].up, nil)
	return nil
}

// SetDownlink changes a node's downlink capacity and reallocates.
func (n *Network) SetDownlink(id NodeID, bytesPerSec int64) error {
	if err := n.checkID(id); err != nil {
		return err
	}
	if bytesPerSec <= 0 {
		return fmt.Errorf("netem: downlink rate must be positive, got %d", bytesPerSec)
	}
	n.nodes[id].cfg.DownlinkBytesPerSec = bytesPerSec
	n.nodes[id].down.capacity = float64(bytesPerSec)
	n.reallocateOn(n.nodes[id].down, nil)
	return nil
}
