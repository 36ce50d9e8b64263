package simpeer

import (
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
)

// This file is the emulation's reputation glue: observations recorded
// against download sources, quarantine enforcement (cancel the
// offender's uploads, skip it in selection, schedule the release), and
// the CatRep trace events. Everything runs on the engine clock and the
// pure-hash draw layer, so a reputation-enabled run is bit-identical
// across repetitions and -workers values. With s.rep == nil every entry
// point is a no-op and the run is bit-identical to pre-reputation
// behavior (the inertness tests enforce it).

// observeRep records one observation about a download source and
// enforces any resulting quarantine. The CDN is never scored: it is
// infrastructure, not a peer, and quarantining the fallback of last
// resort could only hurt liveness.
func (s *swarm) observeRep(src *peerState, obs reputation.Observation) {
	if s.rep == nil || src.isCDN {
		return
	}
	now := s.eng.Now()
	up := s.rep.Observe(src.id, now, obs)
	if s.cfg.Tracer.Enabled() {
		if obs != reputation.ObsSuccess {
			s.emit(src.id, -1, trace.CatRep, trace.EvRepPenalty,
				trace.Str("obs", obs.String()),
				trace.Float64("score", up.Score))
		}
		if up.Cleared {
			s.emit(src.id, -1, trace.CatRep, trace.EvProbationClear)
		}
	}
	if obs != reputation.ObsSuccess {
		s.repPenalties.Inc()
	}
	if !up.Quarantined {
		return
	}
	s.quarantines.Inc()
	if s.cfg.Tracer.Enabled() {
		s.emit(src.id, -1, trace.CatRep, trace.EvQuarantine,
			trace.Float64("score", up.Score),
			trace.Int64("until_us", up.Until.Microseconds()))
	}
	// A quarantined source should not keep serving what selection would
	// no longer assign it: abort its uploads so the victims re-request
	// from healthy sources immediately instead of finishing doomed (or
	// already-poisoned) transfers.
	s.cancelUploadsFrom(src)
	s.fillAll()
	// Release: probation begins when the window lapses, and peers whose
	// pools were starved by the quarantine may now use this source again.
	// If the peer was re-quarantined in the meantime the later window's
	// own release event handles it.
	s.eng.Schedule(up.Until-now, func() {
		if s.rep.Quarantined(src.id, s.eng.Now()) {
			return
		}
		if s.cfg.Tracer.Enabled() {
			s.emit(src.id, -1, trace.CatRep, trace.EvQuarantineEnd)
		}
		s.fillAll()
	})
}
