package peer

import (
	"time"

	"p2psplice/internal/player"
	"p2psplice/internal/trace"
)

// nodeMetrics bundles the node's counter/gauge handles. A nil
// Config.Metrics registry hands out no-op handles, so instrumented call
// sites never branch on whether metrics are enabled.
type nodeMetrics struct {
	schedCalls  trace.Counter
	launches    trace.Counter
	blocksRx    trace.Counter
	bytesRx     trace.Counter
	segsDone    trace.Counter
	verifyFails trace.Counter
	storeFails  trace.Counter
	expired     trace.Counter
	stalls      trace.Counter
	activeDowns trace.Gauge
	// Recovery-path counters: failed tracker announces and failed peer
	// dials (post-backoff attempts included).
	announceFails trace.Counter
	dialFails     trace.Counter

	announceRTT trace.Histogram // p2p_announce_rtt_seconds
}

func newNodeMetrics(r *trace.Registry) nodeMetrics {
	r.SetHelp("p2p_announce_rtt_seconds", "Tracker announce round-trip time (successful announces).")
	return nodeMetrics{
		schedCalls:  r.Counter("sched_calls"),
		launches:    r.Counter("sched_launches"),
		blocksRx:    r.Counter("blocks_rx"),
		bytesRx:     r.Counter("bytes_rx"),
		segsDone:    r.Counter("segments_done"),
		verifyFails: r.Counter("verify_failures"),
		storeFails:  r.Counter("store_failures"),
		expired:     r.Counter("downloads_expired"),
		stalls:      r.Counter("stalls"),
		activeDowns: r.Gauge("active_downloads"),

		announceFails: r.Counter("announce_failures"),
		dialFails:     r.Counter("dial_failures"),

		announceRTT: r.SecondsHistogram("p2p_announce_rtt_seconds"),
	}
}

// emit sends one trace event about segment seg (-1 for none) at the
// current playback-clock time; a no-op on a node without a tracer.
func (n *Node) emit(cat, name string, seg int) {
	n.tr.Emit(trace.Event{At: n.now(), Peer: -1, Seg: seg, Cat: cat, Name: name})
}

// playbackTransitionLocked feeds player state changes to the QoE
// recorder on the playback clock (time since join, so startup is the
// transition's own timestamp). It always runs with n.mu held: every
// player call on a published node happens under the node lock, and the
// observer fires synchronously from those calls.
func (n *Node) playbackTransitionLocked(t player.Transition) {
	if t.To == player.StateStalled {
		n.nm.stalls.Inc()
	}
	n.qoe.Transition(t, -1, 0, n.stallFactsLocked)
}

// stallFactsLocked gathers what the node can see about a beginning stall
// from its download pool and connection set (n.mu held); the facts it
// cannot see (flow freezes, link and burst state, its own outages) stay
// zero, and trace.StallFacts.Cause names the cause.
func (n *Node) stallFactsLocked(time.Duration) trace.StallFacts {
	now := n.now()
	f := trace.StallFacts{InFlight: n.dl.Pool.InFlight}
	if f.InFlight > 0 {
		f.AllQuarantined = true
		for idx := n.dl.Pool.First; idx < len(n.dl.Pool.Have); idx++ {
			if src := n.dl.Flight(idx).Src; src != nil {
				f.AllQuarantined = f.AllQuarantined && n.rep.Quarantined(src.Owner.(*conn).id, now)
			}
		}
		return f
	}
	next := n.dl.Pool.First
	if next == len(n.dl.Pool.Have) {
		f.NothingMissing = true
		return f
	}
	choked := 0
	for _, c := range n.conns {
		if !c.src.Have[next] {
			continue
		}
		f.Holders++
		if c.choked {
			choked++
		}
		if n.rep.Quarantined(c.id, now) {
			f.QuarantinedHolders++
		}
	}
	// No connected peer holds the segment: with the tracker unreachable
	// no new holder can be discovered either.
	f.TrackerDown = n.trackerDown
	f.Blocked = choked == f.Holders
	return f
}
