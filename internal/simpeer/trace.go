package simpeer

import (
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/netem"
	"p2psplice/internal/trace"
)

// This file is the emulation's trace glue: pure listeners translating
// engine and netem callbacks into trace events (the player's go through
// trace.QoE). Nothing here may mutate swarm, flow, or player state, draw
// from the RNG, or schedule events — the same run must be bit-identical
// with tracing on and off (see DESIGN.md §8 and TestTracingIsInert).

// emit sends one event stamped with the current virtual time.
func (s *swarm) emit(peer, seg int, cat, name string, args ...trace.Arg) {
	s.cfg.Tracer.Emit(trace.Event{At: s.eng.Now(), Peer: peer, Seg: seg, Cat: cat, Name: name, Args: args})
}

// flowEventNames maps netem's flow lifecycle kinds to trace event names.
var flowEventNames = [...]string{
	netem.FlowEventSetup:    trace.EvFlowSetup,
	netem.FlowEventActivate: trace.EvFlowActivate,
	netem.FlowEventFreeze:   trace.EvFlowFreeze,
	netem.FlowEventUnfreeze: trace.EvFlowUnfreeze,
	netem.FlowEventRamp:     trace.EvFlowRamp,
	netem.FlowEventComplete: trace.EvFlowComplete,
	netem.FlowEventCancel:   trace.EvFlowCancel,
}

// onFlowEvent translates netem flow lifecycle events, attributing each
// flow to its downloading peer.
func (s *swarm) onFlowEvent(ev netem.FlowEvent) {
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
	s.emit(peer, -1, trace.CatFlow, flowEventNames[ev.Kind], args...)
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
			p.burst.begin(ev.At)
		} else {
			p.burst.end(ev.At)
		}
	}
	if s.cfg.Tracer.Enabled() {
		bad := int64(0)
		if ev.Bad {
			bad = 1
		}
		s.emit(peer, -1, trace.CatFault, trace.EvLossState,
			trace.Int64("bad", bad),
			trace.Float64("loss", ev.Loss))
	}
}

// inBurstWindow reports whether the peer's access link is in the
// Gilbert–Elliott bad state now, or was at the (possibly retroactive)
// stall timestamp at, per the windows onLossState recorded.
func (s *swarm) inBurstWindow(p *peerState, at time.Duration) bool {
	return s.net.LossStateBad(p.node) || p.burst.covers(at)
}

// stallFacts gathers what attribution needs to know about p's stall that
// began at at, with pure reads only (in particular flow.Frozen and
// flow.LinkDown, never flow.Remaining, which advances flow progress);
// trace.StallFacts.Cause names the cause. at is the stall's own
// timestamp: player transitions surface lazily, so a stall observed
// after a rejoin may have begun inside the crash window, and the windows
// below are tested against at as well as against the live state.
func (s *swarm) stallFacts(p *peerState, at time.Duration) trace.StallFacts {
	f := trace.StallFacts{
		InFlight:    p.dl.Pool.InFlight,
		OwnCrash:    p.crashed || p.crash.covers(at),
		OwnLinkDown: s.net.LinkIsDown(p.node) || p.linkDown.covers(at),
		// Only a window that made this peer throw away verified-bad
		// segments.
		Corrupting: p.corruptDiscards > 0 && p.corrupt.covers(at),
	}
	if f.OwnCrash || f.OwnLinkDown || f.Corrupting {
		return f // Cause looks no further: the pool is sized, not inspected
	}
	if f.InFlight == 0 {
		next := s.nextWanted(p)
		if next < 0 {
			f.NothingMissing = true
			return f
		}
		for _, q := range s.peers {
			switch {
			case q == p || !q.src.Have[next]:
			case q.crashed:
				f.CrashedHolder = true
			case q.departed:
			default:
				f.Holders++
				if s.rep != nil && s.rep.Quarantined(q.id, at) {
					f.QuarantinedHolders++
				}
			}
		}
		f.TrackerDown = s.trackerDown
		// Sources exist but none was eligible (upload slots full, relay
		// threshold not crossed); the peer is waiting out a retry.
		f.Blocked = p.retryPending
		return f
	}
	f.AllQuarantined = s.rep != nil
	f.Burst = s.inBurstWindow(p, at)
	for idx := p.dl.Pool.First; idx < len(p.inFlight); idx++ {
		if !p.dl.Pool.Fetching[idx] {
			continue
		}
		d, src := p.inFlight[idx], p.dl.Flight(idx).Src.Owner.(*peerState)
		switch {
		case d.flow == nil:
			// A pending adversary serve: the source accepted the request
			// and is serving nothing (stale-have) or a trickle (slowloris).
			f.Pending++
			if d.pending == fault.AdvSlowloris {
				f.Trickling++
			}
		default:
			if d.flow.Frozen() {
				f.Frozen++
			}
			if d.flow.LinkDown() { // the source's side; p's own link is OwnLinkDown
				f.LinkDown++
			}
		}
		f.AllQuarantined = f.AllQuarantined && !src.isCDN && s.rep.Quarantined(src.id, at)
		f.Burst = f.Burst || s.inBurstWindow(src, at)
	}
	return f
}
