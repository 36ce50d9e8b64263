// Package reputation is a deterministic per-peer scoring and quarantine
// subsystem shared by both stacks: the emulation (internal/simpeer,
// keyed by peer index on the virtual clock) and the real node
// (internal/peer, keyed by wire.PeerID on the playback clock).
//
// Misbehavior observations (verify failures, stale-have lies, slow
// serves, serve timeouts) add to a per-peer score that decays
// exponentially with a configurable half-life; successful serves pay
// the score down. When the score crosses QuarantineScore the peer is
// quarantined for QuarantineFor: selectors skip it unless it is the
// sole remaining source (the liveness escape hatch — a fully
// quarantined swarm with one honest seeder must still complete). After
// the window the peer is on probation: it is selectable again, and
// ProbationSuccesses verified serves clear its score entirely, while
// further misbehavior can re-quarantine it immediately.
//
// Determinism contract (DESIGN.md §9.5): the table never reads a clock —
// callers pass `now` explicitly (sim time or playback time) — and never
// draws randomness, so identical observation sequences produce
// identical scores and states. The package is registered in splicelint's
// DeterministicPackages.
package reputation

import (
	"fmt"
	"math"
	"time"
)

// Config parameterizes scoring, decay, and quarantine. The zero value
// is disabled (Enabled reports false): consumers treat it as "no
// reputation" and keep their legacy behavior bit-identical.
type Config struct {
	// Penalty costs per observation kind.
	VerifyFailCost float64 // a served segment failed manifest verification
	StaleHaveCost  float64 // advertised a segment, then never served a byte
	SlowServeCost  float64 // served below the slow-serve floor
	TimeoutCost    float64 // a transfer expired mid-flight

	// SuccessReward is subtracted from the score (floored at 0) on each
	// verified serve outside probation.
	SuccessReward float64

	// DecayHalfLife halves the score per elapsed interval; 0 disables
	// decay (scores only move on observations).
	DecayHalfLife time.Duration

	// QuarantineScore is the score at or above which a penalized peer is
	// quarantined; it also gates Enabled.
	QuarantineScore float64
	// QuarantineFor is how long a quarantine window lasts.
	QuarantineFor time.Duration
	// ProbationSuccesses is how many verified serves after a quarantine
	// window clear the score back to zero.
	ProbationSuccesses int

	// Detection thresholds consumed by the stacks, not the table:
	// ServeTimeout bounds how long a pending request may sit without
	// completing before the source is charged (stale-have or timeout);
	// SlowServeBytesPerSec is the delivery-rate floor below which a
	// completed serve is charged SlowServeCost.
	ServeTimeout         time.Duration
	SlowServeBytesPerSec int64
}

// Enabled reports whether the config activates reputation tracking.
func (c Config) Enabled() bool { return c.QuarantineScore > 0 }

// Default returns the tuning used by both stacks unless overridden: a
// handful of verify failures quarantines a peer for 20s, transient sins
// decay with a 30s half-life, and three clean serves after the window
// fully rehabilitate it.
func Default() Config {
	return Config{
		VerifyFailCost:       4,
		StaleHaveCost:        3,
		SlowServeCost:        2,
		TimeoutCost:          1,
		SuccessReward:        0.5,
		DecayHalfLife:        30 * time.Second,
		QuarantineScore:      10,
		QuarantineFor:        20 * time.Second,
		ProbationSuccesses:   3,
		ServeTimeout:         4 * time.Second,
		SlowServeBytesPerSec: 4 << 10,
	}
}

// ServeObservation scores a verified completion of bytes delivered over
// elapsed: a clean serve, unless it crawled in below the slow-serve
// floor (a polite slowloris that keeps beating the serve timeout still
// gets charged). A zero floor, or a serve too fast to time, is a success.
func (c Config) ServeObservation(bytes int64, elapsed time.Duration) Observation {
	if c.SlowServeBytesPerSec > 0 && elapsed > 0 &&
		float64(bytes)/elapsed.Seconds() < float64(c.SlowServeBytesPerSec) {
		return ObsSlowServe
	}
	return ObsSuccess
}

// cost maps a penalty observation to its configured score cost.
func (c Config) cost(o Observation) float64 {
	switch o {
	case ObsVerifyFail:
		return c.VerifyFailCost
	case ObsStaleHave:
		return c.StaleHaveCost
	case ObsSlowServe:
		return c.SlowServeCost
	case ObsTimeout:
		return c.TimeoutCost
	default:
		return 0
	}
}

// Observation is one reputation-relevant event about a peer.
type Observation int

const (
	// ObsSuccess is a verified, timely serve.
	ObsSuccess Observation = iota
	// ObsVerifyFail is a serve whose payload failed verification.
	ObsVerifyFail
	// ObsStaleHave is an advertised segment the peer never started
	// serving before the serve timeout.
	ObsStaleHave
	// ObsSlowServe is a serve delivered below the slow-serve rate floor.
	ObsSlowServe
	// ObsTimeout is a transfer that expired mid-flight.
	ObsTimeout
)

// String returns the canonical trace name of the observation.
func (o Observation) String() string {
	switch o {
	case ObsSuccess:
		return "success"
	case ObsVerifyFail:
		return "verify_fail"
	case ObsStaleHave:
		return "stale_have"
	case ObsSlowServe:
		return "slow_serve"
	case ObsTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("obs(%d)", int(o))
	}
}

// State is a peer's standing at a given instant.
type State int

const (
	// Healthy peers are selectable with no strings attached.
	Healthy State = iota
	// Probation peers are selectable; enough successes clear their score.
	Probation
	// Quarantined peers are skipped unless they are the sole source.
	Quarantined
)

// Update reports the effect of one observation.
type Update struct {
	Score       float64       // decayed score after the observation
	Quarantined bool          // this observation opened a quarantine window
	Until       time.Duration // end of the current/last quarantine window
	Cleared     bool          // this observation completed probation
}

// scoreFloor snaps decayed scores to exactly zero: full rehabilitation,
// so a long-clean peer ties a never-penalized one instead of losing
// ranking to an invisible residue forever.
const scoreFloor = 1e-3

// entry is one peer's record. Times are the caller's clock.
type entry struct {
	score         float64
	at            time.Duration // instant score was last current
	quarUntil     time.Duration
	probationLeft int
}

// Table tracks reputation for peers keyed by K. It performs no locking:
// simpeer runs single-threaded on the event loop, and internal/peer
// calls it under the node mutex.
type Table[K comparable] struct {
	cfg     Config
	entries map[K]*entry
}

// NewTable builds a table with the given config.
func NewTable[K comparable](cfg Config) *Table[K] {
	return &Table[K]{cfg: cfg, entries: make(map[K]*entry)}
}

// Config returns the table's configuration.
func (t *Table[K]) Config() Config { return t.cfg }

func (t *Table[K]) get(k K) *entry {
	e := t.entries[k]
	if e == nil {
		e = &entry{}
		t.entries[k] = e
	}
	return e
}

// decay brings e's score current to now.
func (t *Table[K]) decay(e *entry, now time.Duration) {
	if now <= e.at {
		return
	}
	if e.score > 0 && t.cfg.DecayHalfLife > 0 {
		e.score *= math.Exp2(-float64(now-e.at) / float64(t.cfg.DecayHalfLife))
		if e.score < scoreFloor {
			e.score = 0
		}
	}
	e.at = now
}

//lint:hotpath under State
func (t *Table[K]) stateOf(e *entry, now time.Duration) State {
	switch {
	case now < e.quarUntil:
		return Quarantined
	case e.probationLeft > 0:
		return Probation
	default:
		return Healthy
	}
}

// Observe records one observation about peer k at instant now and
// returns the resulting update. now must be monotone per table (both
// stacks' clocks are).
func (t *Table[K]) Observe(k K, now time.Duration, obs Observation) Update {
	e := t.get(k)
	t.decay(e, now)
	var up Update
	if obs == ObsSuccess {
		if e.probationLeft > 0 && now >= e.quarUntil {
			e.probationLeft--
			if e.probationLeft == 0 {
				e.score = 0
				up.Cleared = true
			}
		} else if t.cfg.SuccessReward > 0 {
			e.score -= t.cfg.SuccessReward
			if e.score < 0 {
				e.score = 0
			}
		}
	} else {
		e.score += t.cfg.cost(obs)
		if now >= e.quarUntil && t.cfg.Enabled() && e.score >= t.cfg.QuarantineScore {
			e.quarUntil = now + t.cfg.QuarantineFor
			e.probationLeft = t.cfg.ProbationSuccesses
			up.Quarantined = true
		}
	}
	up.Score = e.score
	up.Until = e.quarUntil
	return up
}

// Score returns k's decayed score at now without recording anything.
func (t *Table[K]) Score(k K, now time.Duration) float64 {
	e := t.entries[k]
	if e == nil {
		return 0
	}
	if now > e.at && e.score > 0 && t.cfg.DecayHalfLife > 0 {
		s := e.score * math.Exp2(-float64(now-e.at)/float64(t.cfg.DecayHalfLife))
		if s < scoreFloor {
			return 0
		}
		return s
	}
	return e.score
}

// State returns k's standing at now. Pure read: safe to call from stall
// classifiers and other observers without perturbing the table.
//
//lint:hotpath selectors ask once per candidate source per scheduling pass
func (t *Table[K]) State(k K, now time.Duration) State {
	e := t.entries[k]
	if e == nil {
		return Healthy
	}
	return t.stateOf(e, now)
}

// Quarantined reports whether k is quarantined at now.
//
//lint:hotpath selectors ask once per candidate source per scheduling pass
func (t *Table[K]) Quarantined(k K, now time.Duration) bool {
	return t.State(k, now) == Quarantined
}
