package simpeer

import (
	"fmt"

	"p2psplice/internal/fault"
	"p2psplice/internal/trace"
)

// This file compiles a fault.Plan against the sim clock and implements
// the swarm-side fault semantics: crash/rejoin, link flaps and rate
// dips, and tracker outages. Every injected fault and recovery is a
// typed CatFault trace event so timelines show fault → stall (or
// fault → masked) causality.

// compileFaults validates the configured plan and schedules one engine
// event per edge — each window's beginning and its end. An empty plan
// schedules nothing — the fault layer is provably inert when unused.
func (s *swarm) compileFaults() error {
	if s.cfg.Faults.Empty() {
		return nil
	}
	if err := s.cfg.Faults.Validate(len(s.peers) - 1); err != nil {
		return fmt.Errorf("simpeer: %w", err)
	}
	for _, e := range s.cfg.Faults.Edges() {
		s.eng.At(e.At, func() { s.applyFault(e) })
	}
	return nil
}

// applyFault begins or ends one fault on the swarm.
func (s *swarm) applyFault(e fault.Edge) {
	if e.Kind == fault.KindTrackerDown {
		s.setTracker(!e.End)
		return
	}
	p := s.peers[e.Node]
	switch e.Kind {
	case fault.KindPeerCrash:
		if e.End {
			s.rejoin(p)
		} else {
			s.crash(p)
		}
	case fault.KindLinkDown:
		s.setLink(p, !e.End)
	case fault.KindLinkRate:
		s.setLinkRate(p, e.BytesPerSec)
	case fault.KindBurstLoss:
		if e.End {
			s.setBurstLoss(p, nil)
		} else {
			s.setBurstLoss(p, &e.Loss)
		}
	case fault.KindCorrupt:
		if e.End {
			s.setCorrupt(p, 0)
		} else {
			s.setCorrupt(p, e.Percent)
		}
	case fault.KindAdversary:
		if e.End {
			s.clearAdversary(p)
		} else {
			s.setAdversary(p, e.Event)
		}
	case fault.KindDuplicate:
		s.setDuplicate(p, !e.End)
	}
}

// crash takes a peer (seeder included — node 0 models a seeder outage)
// abruptly offline: every flow it was part of is cancelled so in-flight
// segments return to their requesters' pools immediately, instead of
// waiting out a transfer that will never finish.
func (s *swarm) crash(p *peerState) {
	if p.departed || p.crashed {
		return
	}
	p.crashed = true
	s.remark(p)
	p.crashes++
	p.lastCrashAt = s.eng.Now()
	s.emit(p.id, -1, trace.CatFault, trace.EvPeerCrash)
	s.cancelPeerFlows(p)
	s.fillAll()
}

// rejoin brings a crashed peer back with its segment store intact (a
// process restart, not a fresh install). While the tracker is down the
// rejoin defers: a restarting peer cannot re-enter the swarm without it.
func (s *swarm) rejoin(p *peerState) {
	if p.departed || !p.crashed {
		return
	}
	if s.trackerDown {
		s.deferred = append(s.deferred, func() { s.rejoin(p) })
		return
	}
	p.crashed = false
	s.remark(p)
	p.rejoinedAt = s.eng.Now()
	p.retryAttempt = 0
	s.emit(p.id, -1, trace.CatFault, trace.EvPeerRejoin)
	// Its segments are visible again and it wants the rest: refill everyone.
	s.fillAll()
}

// setLink downs or restores a peer's access links. Down links freeze
// flows in place (netem fixes them at rate zero); link-up revives them
// at the next reallocation and refills every pool, since the returning
// node may have been somebody's only source.
func (s *swarm) setLink(p *peerState, down bool) {
	// Errors are impossible: node IDs come from setup.
	_ = s.net.SetLinkDown(p.node, down)
	s.remark(p)
	name := trace.EvLinkUp
	if down {
		name = trace.EvLinkDown
		p.linkDowns++
		p.lastLinkDownAt = s.eng.Now()
	} else {
		p.linkUpAt = s.eng.Now()
	}
	s.emit(p.id, -1, trace.CatFault, name)
	if !down {
		s.fillAll()
	}
}

// setLinkRate steps a peer's symmetric access rate without downing the
// link: a KindLinkRate step, the only way a run's bandwidth changes over
// time. It sets the uplink, then the downlink (two reallocation passes),
// and the oracle policy input keeps the configured rate.
func (s *swarm) setLinkRate(p *peerState, bytesPerSec int64) {
	// Errors are impossible: the plan validated rate > 0 and the node
	// IDs come from setup.
	_ = s.net.SetUplink(p.node, bytesPerSec)
	_ = s.net.SetDownlink(p.node, bytesPerSec)
	s.emit(p.id, -1, trace.CatFault, trace.EvLinkRate,
		trace.Int64("rate", bytesPerSec))
}

// setBurstLoss installs (m != nil) or clears (m == nil) a
// Gilbert–Elliott burst-loss model on a peer's access link. While
// installed, netem drives the good/bad chain on the engine clock and
// re-derives every affected Mathis cap on each transition through the
// incremental allocator; the per-transition loss-state observer (see
// trace.go) records the windows for stall attribution.
func (s *swarm) setBurstLoss(p *peerState, m *fault.GEModel) {
	if m != nil {
		// Errors are impossible: the plan validated the parameters and
		// node IDs come from setup.
		_ = s.net.SetGEModel(p.node, *m)
		s.emit(p.id, -1, trace.CatFault, trace.EvBurstLoss,
			trace.Float64("p_good", m.PGood),
			trace.Float64("p_bad", m.PBad),
			trace.Float64("p13", m.P13),
			trace.Float64("p31", m.P31))
		return
	}
	_ = s.net.ClearGEModel(p.node)
	s.emit(p.id, -1, trace.CatFault, trace.EvBurstLossEnd)
}

// setCorrupt opens (pct > 0) or closes (pct == 0) a segment-corruption
// window on a peer: while open, each completed download is discarded
// with probability pct/100 as a container checksum failure and
// re-requested. The draws are pure hashes (fault.CorruptDraw), so the
// window consumes no engine randomness.
func (s *swarm) setCorrupt(p *peerState, pct float64) {
	if pct > 0 {
		p.corruptPct = pct
		p.corruptStartAt = s.eng.Now()
		s.emit(p.id, -1, trace.CatFault, trace.EvCorrupt,
			trace.Float64("percent", pct))
		return
	}
	p.corruptPct = 0
	p.corruptEndAt = s.eng.Now()
	s.emit(p.id, -1, trace.CatFault, trace.EvCorruptEnd)
}

// setAdversary opens an adversary window on a peer: it misbehaves AS A
// SOURCE per ev.Adversary until the window closes. The flag is sticky
// (adversarial) so collection can exclude the peer's own playback from
// honest-swarm samples. Stale-have/slowloris windows change apparent
// availability (the liar now claims every segment), so every pool is
// refilled — that is the lure.
func (s *swarm) setAdversary(p *peerState, ev fault.Event) {
	p.advKind = ev.Adversary
	p.src.WholeClip = p.isSeeder || p.lying()
	s.remark(p)
	p.advPct = ev.Percent
	p.adversarial = true
	s.emit(p.id, -1, trace.CatFault, trace.EvAdversary,
		trace.Str("kind", ev.Adversary.String()),
		trace.Float64("percent", ev.Percent),
		trace.Int64("trickle", ev.BytesPerSec))
	s.fillAll()
}

// clearAdversary closes the window: the peer serves honestly again.
// Pending downloads against it still die by serve timeout (the victims
// cannot know the liar reformed), but new requests complete normally.
func (s *swarm) clearAdversary(p *peerState) {
	p.advKind = fault.AdvNone
	p.src.WholeClip = p.isSeeder || p.lying()
	s.remark(p)
	p.advPct = 0
	s.emit(p.id, -1, trace.CatFault, trace.EvAdversaryEnd)
	s.fillAll()
}

// setDuplicate opens or closes a duplicated-delivery window. Per-packet
// duplication is below the fluid flow model's granularity — receivers
// in the emulation are trivially idempotent — so the window is traced
// for timeline parity with the real stack (where serveBlock really does
// send every PIECE twice) without behavioral effect here.
func (s *swarm) setDuplicate(p *peerState, on bool) {
	name := trace.EvDuplicateEnd
	if on {
		name = trace.EvDuplicate
	}
	s.emit(p.id, -1, trace.CatFault, name)
}

// setTracker starts or ends a tracker outage. Peers already in the
// swarm keep trading (the tracker is not on the data path); joins and
// rejoins queue up and drain, in arrival order, on recovery.
func (s *swarm) setTracker(down bool) {
	if s.trackerDown == down {
		return
	}
	s.trackerDown = down
	if down {
		s.emit(-1, -1, trace.CatFault, trace.EvTrackerDown)
		return
	}
	s.emit(-1, -1, trace.CatFault, trace.EvTrackerUp)
	q := s.deferred
	s.deferred = nil
	for _, fn := range q {
		fn()
	}
}
