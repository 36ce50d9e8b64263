// Package trace is the structured event layer for the whole stack: the
// deterministic emulator (sim engine, netem flows, simpeer scheduling,
// player state) and the real TCP node both emit the same Event records.
// JSONL is their one on-disk form; every other view (the per-peer stall
// timeline, tracereport's rollups, the windowed series) is rebuilt from
// the events by a pure function.
//
// Determinism contract (DESIGN.md §8): tracing must be provably inert.
// A *Tracer is an observer only — it never draws from an RNG, never
// schedules events, and never reads a clock (every Event carries the
// timestamp its emitter already had). A nil *Tracer is valid and makes
// every Emit a no-op, so instrumented code needs no conditionals and the
// traced and untraced paths execute the same statements.
package trace

import (
	"sync"
	"time"
)

// Event categories. One short tag per emitting subsystem.
const (
	CatSim    = "sim"
	CatFlow   = "flow"
	CatPool   = "pool"
	CatPlayer = "player"
	CatFault  = "fault"
	CatRep    = "rep"
)

// Canonical event names. Emitters and the timeline/attribution tooling
// share these constants so a renamed event cannot silently break pairing.
const (
	// Netem flow lifecycle (CatFlow).
	EvFlowSetup    = "flow_setup"
	EvFlowActivate = "flow_activate"
	EvFlowFreeze   = "flow_freeze"
	EvFlowUnfreeze = "flow_unfreeze"
	EvFlowRamp     = "flow_ramp"
	EvFlowComplete = "flow_complete"
	EvFlowCancel   = "flow_cancel"

	// Scheduling decisions and download outcomes (CatPool), both stacks.
	EvPoolFill    = "pool_fill"
	EvSourcePick  = "source_pick"
	EvSourceRetry = "source_retry"
	EvSegComplete = "segment_complete"
	EvVerifyFail  = "verify_fail"
	EvStoreFail   = "store_fail"
	EvTimeout     = "download_timeout"

	// Player state (CatPlayer).
	EvStartup    = "startup"
	EvStallBegin = "stall_begin"
	EvStallCause = "stall_cause"
	EvStallEnd   = "stall_end"
	EvFinished   = "playback_finished"

	// Run summary (CatSim).
	EvSimSummary = "sim_summary"

	// Injected faults and their recoveries (CatFault). Every event a
	// fault.Plan fires is traced, so timelines show fault → stall (or
	// fault → masked) causality end to end.
	EvPeerCrash   = "peer_crash"
	EvPeerRejoin  = "peer_rejoin"
	EvLinkDown    = "link_down"
	EvLinkUp      = "link_up"
	EvLinkRate    = "link_rate"
	EvTrackerDown = "tracker_down"
	EvTrackerUp   = "tracker_up"

	// Correlated impairments (CatFault): Gilbert–Elliott burst-loss
	// windows, segment-corruption windows, and the loss-state
	// transitions netem's chains fire while a burst window is open.
	EvBurstLoss    = "burst_loss_start"
	EvBurstLossEnd = "burst_loss_end"
	EvCorrupt      = "corrupt_start"
	EvCorruptEnd   = "corrupt_end"
	EvLossState    = "loss_state"

	// Adversarial peers (CatFault): windows during which a peer serves
	// corrupt data, lies about availability, trickles bytes, or
	// duplicates deliveries. EvServeTimeout fires when a pending request
	// against a source expires without completing.
	EvAdversary    = "adversary_start"
	EvAdversaryEnd = "adversary_end"
	EvDuplicate    = "duplicate_start"
	EvDuplicateEnd = "duplicate_end"
	EvServeTimeout = "serve_timeout"

	// Reputation/quarantine lifecycle (CatRep). The Peer field (or the
	// ArgPeer string on the real stack) names the peer being judged;
	// penalties carry the observation name and resulting score.
	EvRepPenalty     = "rep_penalty"
	EvQuarantine     = "quarantine_begin"
	EvQuarantineEnd  = "quarantine_end"
	EvProbationClear = "probation_clear"
)

// Stall causes attached to EvStallCause events. Every stall must carry
// exactly one of these; the attribution tests enforce it, and
// StallFacts.Cause decides which (the order in which they outrank each
// other is written there, once).
const (
	// CauseEmptyPool: nothing was in flight when the playhead ran dry and
	// the scheduler had not launched anything even though a source
	// existed — a scheduler gap.
	CauseEmptyPool = "empty_pool"
	// CauseChokedSources: nothing was in flight because every holder of
	// the next segment was choked/busy (the peer is waiting on a retry).
	CauseChokedSources = "choked_sources"
	// CauseNoSource: nothing was in flight and no connected peer holds
	// the next missing segment at all.
	CauseNoSource = "no_source"
	// CauseFrozenFlow: a download was in flight but frozen in an RTO.
	CauseFrozenFlow = "frozen_flow"
	// CauseSlowFlow: downloads were in flight and moving, just slower
	// than playback (or nothing is missing any more and the playhead
	// will catch up).
	CauseSlowFlow = "slow_flow"
	// CausePeerCrash: the stalled peer itself is crashed (its player
	// observes the stall retroactively at rejoin), or the only holders of
	// its next segment are crashed.
	CausePeerCrash = "peer_crash"
	// CauseLinkDown: the peer's own link is administratively down, or
	// every in-flight download rides a downed link.
	CauseLinkDown = "link_down"
	// CauseTrackerDown: no source is known for the next segment and the
	// tracker is unavailable, so no new sources can be discovered.
	CauseTrackerDown = "tracker_down"
	// CauseBurstLoss: the peer's own access link — or the link serving
	// one of its in-flight downloads — is in the Gilbert–Elliott bad
	// (bursting) state, crushing the flows' Mathis caps.
	CauseBurstLoss = "burst_loss"
	// CauseCorruptSegment: a corruption window is open on the peer and a
	// downloaded segment recently failed verification, forcing a
	// re-download of bytes already paid for.
	CauseCorruptSegment = "corrupt_segment"
	// CausePeerQuarantined: every source for the peer's next need —
	// in-flight or prospective — is quarantined by the reputation
	// subsystem, so progress waits on probation or the sole-source
	// escape hatch.
	CausePeerQuarantined = "peer_quarantined"
	// CauseStaleHave: every in-flight download is a pending request
	// against a source that advertised the segment but has not started
	// serving it (a stale-have liar until the serve timeout fires).
	CauseStaleHave = "stale_have"
	// CauseSlowServe: an in-flight pending request is being trickled by a
	// slowloris source below the slow-serve floor.
	CauseSlowServe = "slow_serve"
)

// StallCauses returns the closed set of attributable stall causes, in a
// fixed order. Metric layers register one labeled stall-duration series
// per cause up front, so the recording paths never mutate the registry.
func StallCauses() []string {
	return []string{
		CauseEmptyPool,
		CauseChokedSources,
		CauseNoSource,
		CauseFrozenFlow,
		CauseSlowFlow,
		CausePeerCrash,
		CauseLinkDown,
		CauseTrackerDown,
		CauseBurstLoss,
		CauseCorruptSegment,
		CausePeerQuarantined,
		CauseStaleHave,
		CauseSlowServe,
	}
}

// ArgKind discriminates an Arg's payload.
type ArgKind uint8

const (
	// ArgInt marks an integer argument.
	ArgInt ArgKind = iota
	// ArgFloat marks a float argument.
	ArgFloat
	// ArgStr marks a string argument.
	ArgStr
)

// Arg is one typed key/value attached to an Event. A flat struct (rather
// than map[string]any) keeps emission allocation-light and free of map
// iteration order.
type Arg struct {
	Key   string
	Kind  ArgKind
	Int   int64
	Float float64
	Str   string
}

// Int64 returns an integer argument.
func Int64(key string, v int64) Arg { return Arg{Key: key, Kind: ArgInt, Int: v} }

// Float64 returns a float argument.
func Float64(key string, v float64) Arg { return Arg{Key: key, Kind: ArgFloat, Float: v} }

// Str returns a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Kind: ArgStr, Str: v} }

// Event is one structured trace record. At is whatever clock the emitter
// runs on: virtual time in the emulation, time-since-join on the real
// node. Peer and Seg are -1 when not applicable.
type Event struct {
	At   time.Duration
	Peer int
	Seg  int
	Cat  string
	Name string
	Args []Arg
}

// Arg returns the argument with the given key.
func (ev Event) Arg(key string) (Arg, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			return a, true
		}
	}
	return Arg{}, false
}

// ArgInt64 returns the integer value of the named argument, or def.
func (ev Event) ArgInt64(key string, def int64) int64 {
	if a, ok := ev.Arg(key); ok && a.Kind == ArgInt {
		return a.Int
	}
	return def
}

// ArgStr returns the string value of the named argument, or def.
func (ev Event) ArgStr(key, def string) string {
	if a, ok := ev.Arg(key); ok && a.Kind == ArgStr {
		return a.Str
	}
	return def
}

// Sink consumes events. Implementations must be safe for concurrent use
// when attached to the real TCP stack; the emulation is single-threaded.
type Sink interface {
	Emit(Event)
}

// Tracer is the handle instrumented code holds. The nil Tracer is valid:
// Emit on nil is a no-op and Enabled reports false, so call sites that
// build costly argument lists can skip the work without a second code
// path for "tracing off".
type Tracer struct {
	sink Sink
}

// New returns a Tracer writing to sink, or nil when sink is nil.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether Emit does anything.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Emit records one event. Safe on a nil Tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Emit(ev)
}

// Buffer is an in-memory Sink. It is safe for concurrent use (the real
// stack emits from several goroutines); in the single-threaded emulation
// the mutex is uncontended.
type Buffer struct {
	mu     sync.Mutex // guards events
	events []Event
}

// NewBuffer returns an empty Buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit appends ev.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, ev)
}

// Events returns a copy of the recorded events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}
