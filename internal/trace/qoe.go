package trace

import (
	"time"

	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
)

// QoE is the telemetry recorder: the one writer of the QoE schema for
// the emulation (prefix "sim"), the real node (prefix "p2p") and trace
// replay. It registers the five <prefix>_* histogram families, two
// counters (see NewQoE) and the six TS* windowed series, keeps the
// open-stall state their values depend on, and alone constructs the
// events of its entry points — Transition, Segment, PoolDecision,
// Reputation — which Replay reads back through the same methods, so the
// three backends cannot disagree about what happened or how it is
// spelled. Any backend may be nil: its handles are then no-ops, so
// recording sites run the same statements whatever is attached (the
// inertness tests prove it).
// Transition keeps per-peer state without a lock; callers serialize it
// (the emulation is single-threaded, the real node holds its mutex across
// every player call). The rest touch only atomic handles and the sink.
type QoE struct {
	tr            *Tracer
	poolK         Histogram
	repPenalties  Counter
	quarantines   Counter
	segSeconds    Histogram
	segBytes      Histogram
	bufferedUS    TSSeries
	poolTarget    TSSeries
	inflight      TSSeries
	segsDone      TSSeries
	startup       Histogram
	stall         map[string]Histogram // by cause
	stalled       TSSeries
	stallPermille TSSeries
	viewers       int64
	// open holds each stalled peer's stall start and cause; its size is
	// the stalled-now count the gauges sample.
	open map[int]openStall
}

type openStall struct {
	at    time.Duration
	cause string
}

// NewQoE builds a recorder over the given backends. scheme labels the
// segment histograms (empty omits the label); viewers is the playback
// peer count behind the stall-fraction series. Every family and cause
// registers here, so recording never takes a registry lock and a scrape
// lists the full set.
func NewQoE(tr *Tracer, reg *Registry, prefix, scheme string, ts *TimeSeries, viewers int) *QoE {
	label := ""
	if scheme != "" {
		label = `{scheme="` + scheme + `"}`
	}
	reg.SetHelp(prefix+"_startup_seconds", "Time from join to first rendered frame.")
	reg.SetHelp(prefix+"_stall_seconds", "Playback stall durations by attributed cause.")
	reg.SetHelp(prefix+"_segment_download_seconds", "Per-segment transfer latency.")
	reg.SetHelp(prefix+"_segment_bytes", "Per-segment wire size.")
	reg.SetHelp(prefix+"_pool_size_k", "Equation 1 pool-size decisions.")
	reg.SetHelp(prefix+"_rep_penalties_total", "Reputation penalty observations recorded.")
	reg.SetHelp(prefix+"_quarantines_total", "Quarantine windows opened on peers.")
	q := &QoE{
		tr:            tr,
		poolK:         reg.Histogram(prefix + "_pool_size_k"),
		repPenalties:  reg.Counter(prefix + "_rep_penalties_total"),
		quarantines:   reg.Counter(prefix + "_quarantines_total"),
		segSeconds:    reg.SecondsHistogram(prefix + "_segment_download_seconds" + label),
		segBytes:      reg.Histogram(prefix + "_segment_bytes" + label),
		bufferedUS:    ts.Gauge(TSBufferOccupancyUS),
		poolTarget:    ts.Histogram(TSPoolTargetK),
		inflight:      ts.Gauge(TSInflightFlows),
		segsDone:      ts.Counter(TSSegmentsCompleted),
		startup:       reg.SecondsHistogram(prefix + "_startup_seconds"),
		stall:         map[string]Histogram{},
		stalled:       ts.Gauge(TSStalledPeers),
		stallPermille: ts.Gauge(TSStallFractionPermille),
		viewers:       int64(viewers),
		open:          map[int]openStall{},
	}
	for _, cause := range StallCauses() {
		q.stall[cause] = reg.SecondsHistogram(prefix + `_stall_seconds{cause="` + cause + `"}`)
	}
	return q
}

// Argument keys tracereport's rollups read back; the recorder is their
// one writer. ArgPeer is the wire id of the remote a real node's CatRep
// event is about (the emulation names it in Event.Peer).
const (
	ArgBytes     = "bytes"
	ArgElapsedUS = "elapsed_us"
	ArgScore     = "score"
	ArgUntilUS   = "until_us"
	ArgPeer      = "peer"
)

func (q *QoE) emit(at time.Duration, peer, seg int, cat, name string, args ...Arg) {
	q.tr.Emit(Event{At: at, Peer: peer, Seg: seg, Cat: cat, Name: name, Args: args})
}

// Transition records one playback state change: the one translation
// from player transitions to the five player events, for both stacks.
// tr.At may be retroactive (transitions surface lazily); peer is -1 on
// the real node; joined is when the viewer pressed play on the same
// clock. classify gathers the stack's StallFacts and runs once, for a
// beginning stall only; the stall_cause event carries Cause() and the
// pool evidence behind it.
func (q *QoE) Transition(tr player.Transition, peer int, joined time.Duration, classify func(at time.Duration) StallFacts) {
	switch {
	case tr.From == player.StateWaiting && tr.To == player.StatePlaying:
		q.started(tr.At, peer, tr.At-joined)
	case tr.To == player.StateStalled:
		f := classify(tr.At)
		cause := f.Cause()
		q.stallBegin(tr.At, peer, cause)
		if q.tr.Enabled() {
			q.emit(tr.At, peer, -1, CatPlayer, EvStallBegin)
			q.emit(tr.At, peer, -1, CatPlayer, EvStallCause, Str("cause", cause),
				Int64("inflight", int64(f.InFlight)),
				Int64("frozen", int64(f.Frozen)))
		}
	case tr.From == player.StateStalled && tr.To == player.StatePlaying:
		q.end(tr.At, peer, EvStallEnd)
	case tr.To == player.StateFinished:
		q.end(tr.At, peer, EvFinished)
	}
}

// started records the first rendered frame, startup after the peer's join.
func (q *QoE) started(at time.Duration, peer int, startup time.Duration) {
	q.emit(at, peer, -1, CatPlayer, EvStartup, Int64("startup_us", startup.Microseconds()))
	q.startup.ObserveDuration(startup)
}

// stallBegin opens a stall attributed to cause.
func (q *QoE) stallBegin(at time.Duration, peer int, cause string) {
	q.open[peer] = openStall{at: at, cause: cause}
	q.observeStalled(at)
}

// end closes the peer's open stall, if any, and emits the transition
// (playback resuming, or the end of playback: a run can finish straight
// out of a stall, and closing it here keeps the histograms' totals equal
// to the attributed stall time).
func (q *QoE) end(at time.Duration, peer int, name string) {
	if st, ok := q.open[peer]; ok {
		delete(q.open, peer)
		q.observeStalled(at)
		q.stall[st.cause].ObserveDuration(at - st.at)
	}
	q.emit(at, peer, -1, CatPlayer, name)
}

// observeStalled samples the stalled count and fraction after a change.
func (q *QoE) observeStalled(at time.Duration) {
	n := int64(len(q.open))
	q.stalled.Observe(at, n)
	if q.viewers > 0 {
		q.stallPermille.Observe(at, n*1000/q.viewers)
	}
}

// Segment records one verified, stored segment: its wire size, how long the
// transfer took and, where sources have ids (the emulation; -1 its CDN), src.
func (q *QoE) Segment(at time.Duration, peer, seg int, bytes int64, elapsed time.Duration, src ...int) {
	q.segSeconds.ObserveDuration(elapsed)
	q.segBytes.Observe(bytes)
	q.segsDone.Observe(at, 1)
	if q.tr.Enabled() {
		args := []Arg{Int64(ArgBytes, bytes), Int64(ArgElapsedUS, elapsed.Microseconds())}
		for _, id := range src {
			args = append(args, Int64("src", int64(id)))
		}
		q.emit(at, peer, seg, CatPool, EvSegComplete, args...)
	}
}

// PoolFacts is one pool decision: Eq. 1's inputs and answer, and what
// the scheduler made of it. It had room to act when InFlight < Target.
type PoolFacts struct {
	Bandwidth int64         // B, bytes/s
	Buffered  time.Duration // T, the playback lead
	SegBytes  int64         // W, the size of the first wanted segment
	Target    int           // k
	InFlight  int           // downloads in the pool before the fill
	Launched  int           // downloads the fill started
	Blocked   bool          // a wanted segment had holders but none eligible
}

// PoolDecision records a decision on peer's pool from segment seg: each
// observes pool_size_k; one with room also samples the series, exactly
// what its pool_fill event carries, so rebuilt series equal live ones.
func (q *QoE) PoolDecision(at time.Duration, peer, seg int, f PoolFacts) {
	q.poolK.Observe(int64(f.Target))
	if f.InFlight >= f.Target {
		return
	}
	q.bufferedUS.Observe(at, f.Buffered.Microseconds())
	q.poolTarget.Observe(at, int64(f.Target))
	q.inflight.Observe(at, int64(f.InFlight+f.Launched))
	if q.tr.Enabled() {
		blocked := int64(0)
		if f.Blocked {
			blocked = 1
		}
		q.emit(at, peer, seg, CatPool, EvPoolFill,
			Int64("bandwidth", f.Bandwidth),
			Int64("buffered_us", f.Buffered.Microseconds()),
			Int64("seg_bytes", f.SegBytes),
			Int64("target", int64(f.Target)),
			Int64("inflight", int64(f.InFlight)),
			Int64("launched", int64(f.Launched)),
			Int64("blocked", blocked))
	}
}

// Reputation records what one observation did to a remote peer's
// standing: the penalty (anything but a success), a completed probation,
// an opened quarantine window, in that order, counting the penalty and
// the quarantine. The emulation names the peer by id; the real node
// passes -1 and the wire id.
func (q *QoE) Reputation(at time.Duration, peer int, wireID string, obs reputation.Observation, up reputation.Update) {
	if obs != reputation.ObsSuccess {
		q.repPenalties.Inc()
	}
	if up.Quarantined {
		q.quarantines.Inc()
	}
	if !q.tr.Enabled() {
		return
	}
	var who []Arg
	if wireID != "" {
		who = []Arg{Str(ArgPeer, wireID)}
	}
	score := Float64(ArgScore, up.Score)
	if obs != reputation.ObsSuccess {
		q.emit(at, peer, -1, CatRep, EvRepPenalty, append(who, Str("obs", obs.String()), score)...)
	}
	if up.Cleared {
		q.emit(at, peer, -1, CatRep, EvProbationClear, who...)
	}
	if up.Quarantined {
		q.emit(at, peer, -1, CatRep, EvQuarantine, append(who, score, Int64(ArgUntilUS, up.Until.Microseconds()))...)
	}
}

// QuarantineEnd records the release of peer's lapsed quarantine window.
func (q *QoE) QuarantineEnd(at time.Duration, peer int) {
	q.emit(at, peer, -1, CatRep, EvQuarantineEnd)
}

// Replay folds a recorded event log (one run, in emission order) into
// the recorder through the methods the live run used, emitting nothing.
// Events match by name, so a log from either stack replays, with or
// without peer ids. Replaying a complete in-memory log reproduces the
// live histograms, counters and series exactly — except pool_size_k,
// because a decision at a full pool emits no event.
func (q *QoE) Replay(events []Event) {
	defer func(tr *Tracer) { q.tr = tr }(q.tr)
	q.tr = nil
	us := func(ev Event, key string) time.Duration {
		return time.Duration(ev.ArgInt64(key, 0)) * time.Microsecond
	}
	for _, ev := range events {
		switch ev.Name {
		case EvPoolFill:
			q.PoolDecision(ev.At, ev.Peer, ev.Seg, PoolFacts{
				Buffered: us(ev, "buffered_us"),
				Target:   int(ev.ArgInt64("target", 0)),
				InFlight: int(ev.ArgInt64("inflight", 0)),
				Launched: int(ev.ArgInt64("launched", 0)),
			})
		case EvRepPenalty:
			q.repPenalties.Inc()
		case EvQuarantine:
			q.quarantines.Inc()
		case EvSegComplete:
			q.Segment(ev.At, ev.Peer, ev.Seg, ev.ArgInt64(ArgBytes, 0), us(ev, ArgElapsedUS))
		case EvStartup:
			q.started(ev.At, ev.Peer, us(ev, "startup_us"))
		case EvStallBegin:
			// A sampled or truncated log can lose the stall_end between
			// two begins; the first one stands.
			if _, dup := q.open[ev.Peer]; !dup {
				q.stallBegin(ev.At, ev.Peer, "")
			}
		case EvStallCause:
			if st, ok := q.open[ev.Peer]; ok {
				st.cause = ev.ArgStr("cause", "")
				q.open[ev.Peer] = st
			}
		case EvStallEnd:
			q.end(ev.At, ev.Peer, EvStallEnd)
		case EvFinished:
			q.end(ev.At, ev.Peer, EvFinished)
		}
	}
}
