package simpeer

import "p2psplice/internal/core"

// This file is the emulation's reputation glue: observations recorded
// against download sources and quarantine enforcement (cancel the
// offender's uploads, skip it in selection, schedule the release); the
// CatRep trace events are trace.QoE's. Everything runs on the engine
// clock and the pure-hash draw layer, so a reputation-enabled run is
// bit-identical across repetitions and -workers values. With s.rep == nil
// every entry point is a no-op and the run is bit-identical to
// pre-reputation behavior (the inertness tests enforce it).

// observeRep charges src for flight f, which ended e, and enforces any
// resulting quarantine. The CDN is never scored: it is infrastructure,
// not a peer, and quarantining the fallback of last resort could only
// hurt liveness.
func (s *swarm) observeRep(src *peerState, f *core.Flight, e core.Ending) {
	if s.rep == nil || src.isCDN {
		return
	}
	now := s.eng.Now()
	obs := f.Charge(e, s.rep.Config())
	up := s.rep.Observe(src.id, now, obs)
	s.qoe.Reputation(now, src.id, "", obs, up)
	if !up.Quarantined {
		return
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
		s.qoe.QuarantineEnd(s.eng.Now(), src.id)
		s.fillAll()
	})
}
