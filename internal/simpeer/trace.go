package simpeer

import (
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/netem"
	"p2psplice/internal/player"
	"p2psplice/internal/trace"
)

// This file is the emulation's trace glue: pure listeners translating
// engine, netem, and player callbacks into trace events. Nothing here may
// mutate swarm, flow, or player state, draw from the RNG, or schedule
// events — the same run must be bit-identical with tracing on and off
// (see DESIGN.md §8 and the TestTracingIsInert equivalence test).

// emitAt sends one event with an explicit timestamp (player transitions
// carry retroactive times).
func (s *swarm) emitAt(at time.Duration, peer, seg int, cat, name string, args ...trace.Arg) {
	s.cfg.Tracer.Emit(trace.Event{At: at, Peer: peer, Seg: seg, Cat: cat, Name: name, Args: args})
}

// emit sends one event stamped with the current virtual time.
func (s *swarm) emit(peer, seg int, cat, name string, args ...trace.Arg) {
	s.emitAt(s.eng.Now(), peer, seg, cat, name, args...)
}

// onFlowEvent translates netem flow lifecycle events, attributing each
// flow to its downloading peer.
func (s *swarm) onFlowEvent(ev netem.FlowEvent) {
	var name string
	switch ev.Kind {
	case netem.FlowEventSetup:
		name = trace.EvFlowSetup
	case netem.FlowEventActivate:
		name = trace.EvFlowActivate
	case netem.FlowEventFreeze:
		name = trace.EvFlowFreeze
	case netem.FlowEventUnfreeze:
		name = trace.EvFlowUnfreeze
	case netem.FlowEventRamp:
		name = trace.EvFlowRamp
	case netem.FlowEventComplete:
		name = trace.EvFlowComplete
	case netem.FlowEventCancel:
		name = trace.EvFlowCancel
	default:
		return
	}
	peer := -1
	if id, ok := s.nodeToPeer[ev.Dst]; ok {
		peer = id
	}
	args := []trace.Arg{
		trace.Int64("flow", int64(ev.Flow)),
		trace.Float64("rate", ev.Rate),
		trace.Int64("remaining", ev.Remaining),
	}
	if src, ok := s.nodeToPeer[ev.Src]; ok {
		args = append(args, trace.Int64("src", int64(src)))
	}
	s.emitAt(ev.At, peer, -1, trace.CatFlow, name, args...)
}

// onLossState observes Gilbert–Elliott state transitions on peers'
// access links. It records the most recent bad window's bounds on the
// peer (observer-owned fields: read only by stall attribution, never by
// scheduling) and, when tracing, emits the transition. Attached whenever
// tracing or metering is on — both need stall attribution.
func (s *swarm) onLossState(ev netem.LossStateEvent) {
	peer := -1
	if id, ok := s.nodeToPeer[ev.Node]; ok {
		peer = id
	}
	if peer >= 0 {
		p := s.peers[peer]
		if ev.Bad {
			p.geBursts++
			p.geBadAt = ev.At
		} else if p.geBursts > 0 {
			p.geGoodAt = ev.At
		}
	}
	if s.cfg.Tracer.Enabled() {
		bad := int64(0)
		if ev.Bad {
			bad = 1
		}
		s.emitAt(ev.At, peer, -1, trace.CatFault, trace.EvLossState,
			trace.Int64("bad", bad),
			trace.Float64("loss", ev.Loss))
	}
}

// inBurstWindow reports whether the peer's access link is in the
// Gilbert–Elliott bad state now, or was at the (possibly retroactive)
// stall timestamp at, per the windows onLossState recorded.
func (s *swarm) inBurstWindow(p *peerState, at time.Duration) bool {
	if s.net.LossStateBad(p.node) {
		return true
	}
	if p.geBursts == 0 || at < p.geBadAt {
		return false
	}
	// geGoodAt <= geBadAt means the recovery transition has not fired
	// (or fired for an earlier burst): the window is still open.
	return p.geGoodAt <= p.geBadAt || at < p.geGoodAt
}

// onPlayerTransition feeds playback state changes to the QoE recorder,
// attributing every beginning stall to its proximate cause.
func (s *swarm) onPlayerTransition(p *peerState, tr player.Transition) {
	switch {
	case tr.From == player.StateWaiting && tr.To == player.StatePlaying:
		s.qoe.Started(tr.At, p.id, tr.At-p.joined)
	case tr.To == player.StateStalled:
		cause, inflight, frozen := s.classifyStall(p, tr.At)
		s.qoe.Stalled(tr.At, p.id, cause,
			trace.Int64("inflight", int64(inflight)),
			trace.Int64("frozen", int64(frozen)))
	case tr.From == player.StateStalled && tr.To == player.StatePlaying:
		s.qoe.Resumed(tr.At, p.id)
	case tr.To == player.StateFinished:
		s.qoe.Finished(tr.At, p.id)
	}
}

// classifyStall inspects the stalling peer's download pool with pure
// reads only (in particular flow.Frozen and flow.LinkDown, never
// flow.Remaining, which advances flow progress). at is the stall's own
// timestamp: player transitions surface lazily, so a stall observed
// after a rejoin may have begun inside the crash window.
func (s *swarm) classifyStall(p *peerState, at time.Duration) (cause string, inflight, frozen int) {
	inflight = p.inFlightN
	// The peer itself is (or was, at the stall's timestamp) crashed:
	// the outage is the cause regardless of pool state.
	if p.crashed || (p.crashes > 0 && at >= p.lastCrashAt && at < p.rejoinedAt) {
		return trace.CausePeerCrash, inflight, 0
	}
	// The peer's own access link is (or was, at the stall's timestamp)
	// administratively down: nothing can move whether or not downloads
	// are in flight.
	if s.net.LinkIsDown(p.node) ||
		(p.linkDowns > 0 && at >= p.lastLinkDownAt && at < p.linkUpAt) {
		return trace.CauseLinkDown, inflight, 0
	}
	// A corruption window made this peer throw away verified-bad
	// segments: the re-downloads, not the scheduler, are the proximate
	// cause of a stall inside the window.
	if p.corruptDiscards > 0 && at >= p.corruptStartAt &&
		(p.corruptPct > 0 || at < p.corruptEndAt) {
		return trace.CauseCorruptSegment, inflight, 0
	}
	if inflight == 0 {
		next := s.nextWanted(p)
		if next >= 0 && s.holderCount(next) == 0 {
			if s.trackerDown {
				// No live holder and no tracker to discover one through:
				// the tracker is the binding constraint, whatever took the
				// holders away.
				return trace.CauseTrackerDown, 0, 0
			}
			if s.crashedHolder(next) {
				// A crashed peer holds it; the swarm lost the source.
				return trace.CausePeerCrash, 0, 0
			}
			return trace.CauseNoSource, 0, 0
		}
		if s.rep != nil && next >= 0 && s.allHoldersQuarantined(p, next, at) {
			// Holders exist but the reputation subsystem has every one of
			// them in quarantine: progress waits on probation or on the
			// sole-source escape hatch's next retry.
			return trace.CausePeerQuarantined, 0, 0
		}
		if p.retryPending {
			// Sources exist but none was eligible (upload slots full, relay
			// threshold not crossed); the peer is waiting out a retry.
			return trace.CauseChokedSources, 0, 0
		}
		// A source exists and no retry is pending: the scheduler simply
		// left the pool empty.
		return trace.CauseEmptyPool, 0, 0
	}
	// Pending adversary serves have no flow: if nothing else is moving
	// either, the peer is hung on sources that accepted requests and are
	// serving nothing (stale-have) or a useless trickle (slowloris).
	pending, trickling := 0, 0
	for _, d := range p.inFlight {
		if d != nil && d.flow == nil {
			pending++
			if d.pending == fault.AdvSlowloris {
				trickling++
			}
		}
	}
	if pending == inflight {
		if trickling > 0 {
			return trace.CauseSlowServe, inflight, 0
		}
		return trace.CauseStaleHave, inflight, 0
	}
	linkDown := 0
	for _, d := range p.inFlight {
		if d == nil || d.flow == nil {
			continue
		}
		if d.flow.Frozen() {
			frozen++
		}
		if d.flow.LinkDown() {
			linkDown++
		}
	}
	if linkDown > 0 && linkDown == inflight-pending {
		// Every in-flight download rides a downed link (the sources'
		// side — the peer's own link was handled above).
		return trace.CauseLinkDown, inflight, frozen
	}
	if frozen > 0 {
		return trace.CauseFrozenFlow, inflight, frozen
	}
	if s.rep != nil && s.allInFlightSourcesQuarantined(p, at) {
		// Every moving download comes from a quarantined source — the
		// escape hatch kept liveness, but the swarm is degraded to its
		// least-trusted serving set.
		return trace.CausePeerQuarantined, inflight, frozen
	}
	// Burst loss: the peer's own access link, or the link of a source
	// serving one of its in-flight downloads, is (or was, at the stall's
	// timestamp) in the Gilbert–Elliott bad state — the crushed Mathis
	// caps, not ordinary congestion, explain the slow flows.
	if s.inBurstWindow(p, at) {
		return trace.CauseBurstLoss, inflight, 0
	}
	for _, d := range p.inFlight {
		if d != nil && s.inBurstWindow(d.src, at) {
			return trace.CauseBurstLoss, inflight, 0
		}
	}
	return trace.CauseSlowFlow, inflight, 0
}

// allHoldersQuarantined reports whether segment idx has at least one
// live holder and every live holder was quarantined at the stall's
// timestamp. Pure reads only (Table.Quarantined never mutates), like
// the rest of stall attribution.
func (s *swarm) allHoldersQuarantined(p *peerState, idx int, at time.Duration) bool {
	holders := 0
	for _, q := range s.peers {
		if q == p || q.departed || q.crashed || !q.have[idx] {
			continue
		}
		holders++
		if !s.rep.Quarantined(q.id, at) {
			return false
		}
	}
	return holders > 0
}

// allInFlightSourcesQuarantined reports whether every in-flight
// download's source was quarantined at the stall's timestamp.
func (s *swarm) allInFlightSourcesQuarantined(p *peerState, at time.Duration) bool {
	for _, d := range p.inFlight {
		if d != nil && (d.src.isCDN || !s.rep.Quarantined(d.src.id, at)) {
			return false
		}
	}
	return p.inFlightN > 0
}
