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
	// Reputation counters: penalties recorded against remote peers and
	// quarantine windows opened.
	repPenalties trace.Counter
	quarantines  trace.Counter

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
		repPenalties:  r.Counter("rep_penalties"),
		quarantines:   r.Counter("rep_quarantines"),

		announceRTT: r.SecondsHistogram("p2p_announce_rtt_seconds"),
	}
}

// emitAt sends one trace event at the given playback-clock time; a no-op
// on a node without a tracer.
func (n *Node) emitAt(at time.Duration, cat, name string, seg int, args ...trace.Arg) {
	n.tr.Emit(trace.Event{At: at, Peer: -1, Seg: seg, Cat: cat, Name: name, Args: args})
}

// playbackTransitionLocked feeds player state changes to the QoE
// recorder on the playback clock (time since join, so startup is the
// transition's own timestamp). It always runs with n.mu held: every
// player call on a published node happens under the node lock, and the
// observer fires synchronously from those calls.
func (n *Node) playbackTransitionLocked(t player.Transition) {
	switch {
	case t.From == player.StateWaiting && t.To == player.StatePlaying:
		n.qoe.Started(t.At, -1, t.At)
	case t.To == player.StateStalled:
		n.nm.stalls.Inc()
		n.qoe.Stalled(t.At, -1, n.stallCauseLocked(),
			trace.Int64("inflight", int64(len(n.active))))
	case t.From == player.StateStalled && t.To == player.StatePlaying:
		n.qoe.Resumed(t.At, -1)
	case t.To == player.StateFinished:
		n.qoe.Finished(t.At, -1)
	}
}

// stallCauseLocked attributes a beginning stall to its proximate cause by
// inspecting the download pool and connection set (n.mu held).
func (n *Node) stallCauseLocked() string {
	if len(n.active) > 0 {
		// Every in-flight download rides a quarantined source: the
		// escape hatch kept liveness, but the pool is degraded to its
		// least-trusted serving set.
		if n.allActiveQuarantinedLocked() {
			return trace.CausePeerQuarantined
		}
		// Downloads are in flight but did not outrun the playhead.
		return trace.CauseSlowFlow
	}
	next := -1
	for i := 0; i < n.store.Segments(); i++ {
		if !n.store.Have(i) {
			next = i
			break
		}
	}
	if next < 0 {
		return trace.CauseSlowFlow // store complete; playhead will catch up
	}
	holders, choked, quarantined := 0, 0, 0
	for _, c := range n.conns {
		if c.remoteHas(next) {
			holders++
			if c.remoteChoked() {
				choked++
			}
			if n.rep.Quarantined(c.id, n.now()) {
				quarantined++
			}
		}
	}
	switch {
	case holders == 0:
		if n.trackerDown {
			// No connected peer holds the segment and the tracker is
			// unreachable, so no new holder can be discovered: the outage
			// is the binding constraint.
			return trace.CauseTrackerDown
		}
		return trace.CauseNoSource
	case quarantined == holders:
		// Holders exist but reputation has every one of them in
		// quarantine: progress waits on probation or on the escape
		// hatch's next pick.
		return trace.CausePeerQuarantined
	case choked == holders:
		return trace.CauseChokedSources
	default:
		// A willing source exists yet nothing is in flight: the scheduler
		// left the pool empty (the failure mode of the old scan budget).
		return trace.CauseEmptyPool
	}
}

// allActiveQuarantinedLocked reports whether every in-flight download's
// source is quarantined right now (n.mu held).
func (n *Node) allActiveQuarantinedLocked() bool {
	now := n.now()
	for _, d := range n.active {
		if !n.rep.Quarantined(d.conn.id, now) {
			return false
		}
	}
	return len(n.active) > 0
}
