package trace

import (
	"time"

	"p2psplice/internal/player"
)

// QoE is the playback-telemetry recorder: the one writer of the QoE
// schema for the emulation (prefix "sim"), the real node (prefix "p2p")
// and trace replay. It registers the five <prefix>_* histogram families
// (see NewQoE) and the six TS* windowed series, keeps the open-stall
// state their values depend on, and alone constructs the five player
// events, so the three backends cannot disagree about a playback
// transition. Any backend may be nil: its handles are then no-ops, so
// recording sites run the same statements whatever is attached (the
// inertness tests prove it). The transition methods keep per-peer state
// without a lock; callers serialize them (the emulation is
// single-threaded, the real node holds its mutex across every player
// call).
type QoE struct {
	// Per-decision handles, exported so the schedulers' hot paths
	// observe them directly at the decision site.
	PoolK      Histogram
	SegSeconds Histogram
	SegBytes   Histogram
	BufferedUS TSGauge
	PoolTarget TSHist
	Inflight   TSGauge
	SegsDone   TSCounter

	tr            *Tracer
	startup       Histogram
	stall         map[string]Histogram // by cause
	stalled       TSGauge
	stallPermille TSGauge
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
	q := &QoE{
		PoolK:         reg.Histogram(prefix + "_pool_size_k"),
		SegSeconds:    reg.SecondsHistogram(prefix + "_segment_download_seconds" + label),
		SegBytes:      reg.Histogram(prefix + "_segment_bytes" + label),
		BufferedUS:    ts.Gauge(TSBufferOccupancyUS),
		PoolTarget:    ts.Histogram(TSPoolTargetK),
		Inflight:      ts.Gauge(TSInflightFlows),
		SegsDone:      ts.Counter(TSSegmentsCompleted),
		tr:            tr,
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

func (q *QoE) emit(at time.Duration, peer int, name string, args ...Arg) {
	q.tr.Emit(Event{At: at, Peer: peer, Seg: -1, Cat: CatPlayer, Name: name, Args: args})
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
			q.emit(tr.At, peer, EvStallBegin)
			q.emit(tr.At, peer, EvStallCause, Str("cause", cause),
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
	q.emit(at, peer, EvStartup, Int64("startup_us", startup.Microseconds()))
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
	q.emit(at, peer, name)
}

// observeStalled samples the stalled count and fraction after a change.
func (q *QoE) observeStalled(at time.Duration) {
	n := int64(len(q.open))
	q.stalled.Observe(at, n)
	if q.viewers > 0 {
		q.stallPermille.Observe(at, n*1000/q.viewers)
	}
}

// Replay folds a recorded event log (one run, in emission order) into
// the recorder through the methods the live run used, emitting nothing.
// Events match by name, so a log from either stack replays: CatPool or
// CatSched completions, player events with or without a peer id.
// Replaying a complete in-memory log reproduces the live histograms and
// series exactly — except pool_size_k, because a fill that returns at a
// full pool emits no event.
func (q *QoE) Replay(events []Event) {
	defer func(tr *Tracer) { q.tr = tr }(q.tr)
	q.tr = nil
	for _, ev := range events {
		switch ev.Name {
		case EvPoolFill:
			q.BufferedUS.Observe(ev.At, ev.ArgInt64("buffered_us", 0))
			q.PoolTarget.Observe(ev.At, ev.ArgInt64("target", 0))
			q.Inflight.Observe(ev.At, ev.ArgInt64("inflight", 0)+ev.ArgInt64("launched", 0))
		case EvSegComplete:
			q.SegSeconds.Observe(ev.ArgInt64("elapsed_us", 0))
			q.SegBytes.Observe(ev.ArgInt64("bytes", 0))
			q.SegsDone.Inc(ev.At)
		case EvStartup:
			q.started(ev.At, ev.Peer, time.Duration(ev.ArgInt64("startup_us", 0))*time.Microsecond)
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
