package simpeer

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/netem"
	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/sim"
	"p2psplice/internal/trace"
)

// peerState is one node's swarm state (seeder or leecher).
type peerState struct {
	id       int
	rate     int64 // configured access rate (oracle policy input)
	node     netem.NodeID
	isSeeder bool
	isCDN    bool

	// src is this node as an uploader, the facts the scheduler ranks it by:
	// what it holds, its uploads in all and per segment, whether it answers
	// for the whole clip, and how far its own fetch of a segment has got.
	src core.Source

	// Leecher-only fields.
	player *player.Player
	// pool is this node as a downloader (its Have is src.Have). inFlight
	// holds the download behind each segment pool.Fetching marks, a zero
	// record elsewhere; index order is the deterministic teardown order.
	pool     core.Pool
	inFlight []download
	// done is the OnComplete of every transfer p downloads, bound once at
	// setup: the in-flight record holding the Flow names its segment.
	done     func(*netem.Flow)
	est      *core.BandwidthEstimator
	joined   time.Duration
	departed bool

	// Crash state (fault plans only). A crashed peer keeps its segment
	// store across rejoin (process-restart model) but serves and fetches
	// nothing while down. lastCrashAt/rejoinedAt bound the most recent
	// outage so retroactively-observed player stalls inside the window
	// attribute to the crash.
	crashed     bool
	crashes     int
	lastCrashAt time.Duration
	rejoinedAt  time.Duration
	// Link-flap window bounds, kept for the same retroactive stall
	// attribution (netem owns the live down/up flag).
	linkDowns      int
	lastLinkDownAt time.Duration
	linkUpAt       time.Duration
	// Corruption window state (fault plans only). corruptPct > 0 while a
	// window is open on this peer; the bounds and discard counters give
	// retroactively-observed stalls inside the window their cause.
	corruptPct      float64
	corruptStartAt  time.Duration
	corruptEndAt    time.Duration
	corruptDiscards int
	// segAttempts counts download attempts per segment so every retry of
	// a discarded segment gets a fresh deterministic corruption draw
	// (a fixed per-segment draw would livelock at high percentages).
	// Allocated on the first draw: fault-free runs never need it.
	segAttempts []int
	// Adversary window state (fault plans only). advKind != AdvNone while
	// a window is open on this peer — misbehavior AS A SOURCE: corrupter
	// and polluter serves fail verification at the requester, stale-have
	// and slowloris serves hang as pending downloads until the serve
	// timeout. adversarial is sticky so collection can exclude the peer's
	// own playback from honest-swarm samples.
	advKind     fault.AdversaryKind
	advPct      float64 // polluter corruption probability, percent
	adversarial bool
	// Burst-loss window observations. Observer-owned: written only by
	// onLossState (attached only when tracing or metering) and read only
	// by stall attribution, never by scheduling.
	geBursts int
	geBadAt  time.Duration
	geGoodAt time.Duration
	// retryAttempt counts consecutive blocked fills for backoff; any
	// successful launch resets it.
	retryAttempt int

	// lastSrc is the source of this peer's most recent download. Peers keep
	// stable relationships (the unchoke pairs of a piece-level protocol stay
	// put for tens of seconds), so the scheduler prefers it while eligible.
	lastSrc *core.Source
	// retryPending marks a scheduled source-retry so fill does not stack
	// duplicate timers while the peer waits for an eligible source; retry
	// is the one Timer armRetry re-arms, retryFn its callback.
	retryPending bool
	retry        *sim.Timer
	retryFn      func()
	// serves numbers the pending adversary serves p has opened, so a serve
	// timeout knows its own record from a later one for the same segment.
	serves int
}

// download is one in-flight segment transfer with its chosen source; src
// is nil in a free slot. flow is nil for a pending adversary serve
// (stale-have or slowloris): no bytes move, and the entry is reaped by the
// serve-timeout event numbered serve; pending records which adversary
// kind opened it, for attribution. dropFlight clears the record before
// the Flow's OnComplete or Cancel returns, after which netem reuses it.
type download struct {
	flow    *netem.Flow
	src     *peerState
	pending fault.AdversaryKind
	serve   int
}

// initialBandwidthGuess is the B an estimating leecher feeds the policy
// before its first download completes.
const initialBandwidthGuess = 64 * 1024

// bandwidth returns the B fed into the pooling policy.
func (s *swarm) bandwidth(p *peerState) int64 {
	if s.cfg.OracleBandwidth {
		if p.rate > 0 {
			return p.rate
		}
		return s.cfg.BandwidthBytesPerSec
	}
	if b := p.est.Estimate(); b > 0 {
		return b
	}
	return initialBandwidthGuess
}

// dropFlight removes p's download of segment idx and returns the upload
// slot it held to its source. The caller cancels the flow if it is live.
// It is the one place the pool shrinks, and it syncs the player first, so
// a stall this call reveals is attributed with the download still in the
// pool (see trace.StallFacts). The sync moves no player state: advanceTo
// computes the stall instant exactly.
func (p *peerState) dropFlight(idx int, now time.Duration) {
	p.player.Position(now)
	src := p.inFlight[idx].src
	p.inFlight[idx] = download{}
	p.pool.Drop(idx, &src.src)
}

// nextWanted returns the index of the next segment to request, or -1. The
// scan resumes at the first-missing cursor, so it costs the in-flight
// window (plus the rarest-first lookahead), not the clip.
//
//lint:hotpath runs at the top of every fill
func (s *swarm) nextWanted(p *peerState) int {
	first := p.pool.FirstWanted()
	if first < 0 || s.cfg.Selection != SelectRarestFirst {
		return first
	}
	// Rarest-first within a lookahead window of wanted segments.
	best, bestHolders := first, int(^uint(0)>>1)
	seen := 0
	for idx := first; idx < len(s.segs) && seen < rarestWindow; idx++ {
		if !p.pool.Wanted(idx) {
			continue
		}
		seen++
		holders := s.holderCount(idx)
		if holders > 0 && holders < bestHolders {
			best, bestHolders = idx, holders
		}
	}
	return best
}

// holderCount counts active peers holding segment idx.
//
//lint:hotpath rarest-first calls it per lookahead segment in nextWanted
func (s *swarm) holderCount(idx int) int {
	n := 0
	for _, q := range s.peers {
		if !q.departed && !q.crashed && q.src.Have[idx] {
			n++
		}
	}
	return n
}

// lying reports whether q has an open stale-have or slowloris window: it
// claims every segment (src.WholeClip) and requesters believe it, assigning
// it downloads that will only die by serve timeout — that is the attack.
func (q *peerState) lying() bool {
	return q.advKind == fault.AdvStaleHave || q.advKind == fault.AdvSlowloris
}

// relayProgress is q.src.Relay: how much of segment idx, which q does not
// hold, q has fetched so far, or -1 below the relay threshold. Reading it
// advances the flow's byte count to now, which perturbs nothing: netem
// recomputes progress from the last rate-change anchor, so the value is
// the same however many reads came before.
//
//lint:hotpath runs per non-holding candidate source per wanted segment
func (s *swarm) relayProgress(q *peerState, idx int) float64 {
	d := &q.inFlight[idx]
	if d.flow == nil {
		return -1
	}
	size := d.flow.Size()
	if size <= 0 {
		return -1
	}
	progress := 1 - float64(d.flow.Remaining())/float64(size)
	if progress < relayThreshold {
		return -1
	}
	return progress
}

// relayThreshold is the download progress (fraction of segment bytes
// received) at which a leecher starts serving that segment to others: a
// couple of 16 kB pieces into a typical segment. It models the paper's
// piece-level exchange — a segment is the splicing unit, but transfers move
// in pieces, so a peer relays a segment while still fetching it. Without
// relaying, simultaneous sequential viewers degenerate to seeder fan-out.
const relayThreshold = 0.02

// sourceRetryDelay is how soon a peer that found no eligible source looks
// again. It stands in for the continuous per-piece re-evaluation of the real
// protocol (there is no protocol event for "a relay crossed its threshold").
const sourceRetryDelay = 250 * time.Millisecond

// buildSourceSet gathers the engine's facts for a fill of p at now: the
// roster's members (every other peer that is present, up and reachable;
// see remark), with their quarantine flags when reputation is on; and the
// CDN as the fallback while p fetches nothing from it (the paper's hybrid
// rule: at most one segment at a time, after the swarm's sources).
//
//lint:hotpath runs once per fill that has pool room
func (s *swarm) buildSourceSet(p *peerState, now time.Duration) {
	s.set.From(s.roster, p.id, p.lastSrc)
	if s.rep != nil {
		for _, q := range s.peers {
			q.src.Quarantined = s.rep.Quarantined(q.id, now)
		}
	}
	if s.cdn != nil && s.cdnEligible(p) {
		s.set.Fallback = &s.cdn.src
	}
}

// remark brings q's roster bits up to date after an event that may have
// changed them: it is present unless departed, crashed or cut off, and
// answers for the whole clip as its src says.
func (s *swarm) remark(q *peerState) {
	s.roster.Mark(q.id, !q.departed && !q.crashed && !s.net.LinkIsDown(q.node), q.src.WholeClip)
}

// cdnEligible enforces the paper's hybrid rule: a client downloads at most
// one segment at a time from the CDN. p's downloads all lie between its
// first missing segment and the availability frontier.
//
//lint:hotpath part of the source-set build
func (s *swarm) cdnEligible(p *peerState) bool {
	for idx := p.pool.First; idx <= s.frontier; idx++ {
		if d := &p.inFlight[idx]; d.src != nil && d.src.isCDN {
			return false
		}
	}
	return true
}

// fill tops up p's download pool according to its policy. It is called on
// join and after every event that could change the decision (completion,
// cancellation, departure); when a wanted segment has no eligible source it
// schedules a short retry.
func (s *swarm) fill(p *peerState) {
	if p.isSeeder || p.departed || p.crashed || s.net.LinkIsDown(p.node) {
		return
	}
	now := s.eng.Now()
	next := s.nextWanted(p)
	if next == -1 {
		return // everything downloaded or in flight
	}
	f := trace.PoolFacts{
		Bandwidth: s.bandwidth(p), Buffered: p.player.BufferedAhead(now),
		SegBytes: s.segs[next].Bytes, InFlight: p.pool.InFlight,
	}
	f.Target = s.cfg.Policy.PoolSize(f.Bandwidth, f.Buffered, f.SegBytes)
	s.qoe.PoolK.Observe(int64(f.Target))
	if f.InFlight >= f.Target {
		return
	}
	// The pool is the next `target` wanted segments with an eligible source;
	// the scheduler decides which and from whom.
	s.buildSourceSet(p, now)
	f.Blocked = s.set.Fill(&p.pool, next, f.Target, s.frontier, func(idx int, from *core.Source, cut bool) {
		if s.pickCheck != nil {
			s.pickCheck(p, idx, from, cut)
		}
		if from != nil {
			s.startDownload(p, from.Owner.(*peerState), idx)
			f.Launched++
		}
	})
	if f.Launched > 0 {
		p.retryAttempt = 0
	}
	s.qoe.PoolDecision(now, p.id, next, f)
	if f.Blocked && !p.retryPending {
		p.retryPending = true
		// Legacy fixed retry unless backoff is opted in: capped exponential
		// with deterministic jitter (a pure hash of seed/peer/attempt, never
		// the engine RNG, so enabling it perturbs no other draw).
		delay := sourceRetryDelay
		attempt := 0
		if s.cfg.RetryBackoff.Enabled() {
			attempt = p.retryAttempt
			delay = s.cfg.RetryBackoff.Delay(s.cfg.Seed, p.id, attempt)
			p.retryAttempt++
		}
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, next, trace.CatPool, trace.EvSourceRetry,
				trace.Int64("delay_us", delay.Microseconds()),
				trace.Int64("attempt", int64(attempt)))
		}
		s.armRetry(p, delay)
	}
}

// armRetry queues p's source retry after delay, re-arming its Timer once
// it has one: Reschedule takes the seq Schedule would.
//
//lint:hotpath every fill that blocks with no retry pending
func (s *swarm) armRetry(p *peerState, delay time.Duration) {
	if p.retry != nil {
		s.eng.Reschedule(p.retry, delay)
		return
	}
	p.retry = s.eng.Schedule(delay, p.retryFn)
}

// retry is a source-retry firing: fill again, unless p has left.
func (s *swarm) retry(p *peerState) {
	// A stall that began during the wait surfaces here, while the flag
	// still says what the peer was waiting for.
	p.player.BufferedAhead(s.eng.Now())
	p.retryPending = false
	if !p.departed {
		s.fill(p)
	}
}

// startDownload launches one segment transfer the scheduler chose; the
// scheduler enters it into p's pool and src's load.
func (s *swarm) startDownload(p, src *peerState, idx int) {
	p.lastSrc = &src.src
	if idx > s.frontier {
		s.frontier = idx
	}
	// A stale-have or slowloris source accepted the request but will never
	// deliver the segment inside the serve timeout: model the hang as a
	// pending download with no netem flow, reaped by a scheduled timeout.
	// (A slowloris trickles real bytes, but a trickle that cannot finish
	// before the timeout is indistinguishable from silence in the fluid
	// model; the trickle rate is trace metadata.)
	if src.lying() {
		p.serves++
		serve := p.serves
		p.inFlight[idx] = download{src: src, pending: src.advKind, serve: serve}
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
				trace.Int64("flow", -1),
				trace.Int64("src", int64(src.id)))
		}
		s.eng.Schedule(s.serveTimeout(), func() { s.onServeTimeout(p, idx, serve) })
		return
	}
	opts := netem.TransferOptions{ReuseConnection: !s.cfg.FreshConnectionPerSegment}
	flow, err := s.net.StartTransfer(src.node, p.node, s.segs[idx].Bytes, opts, p.done)
	if err != nil {
		// Unreachable: nodes and sizes are validated at setup.
		panic("simpeer: start transfer: " + err.Error())
	}
	p.inFlight[idx] = download{flow: flow, src: src}
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
			trace.Int64("flow", int64(flow.ID())),
			trace.Int64("src", int64(src.id)))
	}
}

// defaultServeTimeout bounds how long a pending request may hang before
// the requester gives up on the source — behavior that exists with or
// without reputation (otherwise a stale-have liar would pin its victims
// forever).
const defaultServeTimeout = 4 * time.Second

// serveTimeout resolves the pending-request timeout.
func (s *swarm) serveTimeout() time.Duration {
	if s.cfg.Reputation != nil && s.cfg.Reputation.ServeTimeout > 0 {
		return s.cfg.Reputation.ServeTimeout
	}
	return defaultServeTimeout
}

// onServeTimeout reaps pending serve number serve if it is still in
// flight — its source never delivered: the segment returns to the pool,
// the source is charged (stale-have for a silent liar, slow-serve for a
// slowloris trickle), and the requester refills immediately.
func (s *swarm) onServeTimeout(p *peerState, idx, serve int) {
	d := p.inFlight[idx]
	if d.serve != serve {
		return // already reaped by crash/departure teardown
	}
	src := d.src
	p.dropFlight(idx, s.eng.Now())
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvServeTimeout,
			trace.Int64("src", int64(src.id)),
			trace.Str("kind", d.pending.String()))
	}
	obs := reputation.ObsStaleHave
	if d.pending == fault.AdvSlowloris {
		obs = reputation.ObsSlowServe
	}
	s.observeRep(src, obs)
	if !p.departed && !p.crashed {
		s.fill(p)
	}
}

// flightOf returns the segment whose download is f. p's downloads all lie
// between its first missing segment and the availability frontier.
func (s *swarm) flightOf(p *peerState, f *netem.Flow) int {
	for idx := p.pool.First; idx <= s.frontier; idx++ {
		if p.inFlight[idx].flow == f {
			return idx
		}
	}
	panic("simpeer: a completed flow is not in flight") // unreachable: dropFlight clears a record before its Flow is released
}

// onDownloadComplete handles a finished segment transfer.
func (s *swarm) onDownloadComplete(p *peerState, f *netem.Flow) {
	idx := s.flightOf(p, f)
	src := p.inFlight[idx].src
	// k counts the finishing flow too: it is this peer's concurrency while
	// the segment was in transit.
	k := int64(p.pool.InFlight)
	now := s.eng.Now()
	p.dropFlight(idx, now)
	if p.departed {
		return
	}
	// Eq. 1 wants the peer's aggregate download bandwidth B, but one flow
	// of a k-way pool delivers only ~B/k: feeding per-flow throughput into
	// the estimator made it converge to B/k, inflating the pool size and
	// over-subscribing the access link. Scaling the observed bytes by the
	// in-flight count recovers the aggregate rate — the emulation twin of
	// the real stack's core.AggregateMeter.
	if k < 1 {
		k = 1
	}
	p.est.Observe(f.Size()*k, f.Elapsed())
	// Inside a corruption window the bytes arrive (the estimator above
	// sees real link throughput) but the segment can fail container
	// checksum verification, in which case it goes back to the pool and
	// is fetched again. Whether THIS attempt is corrupted is a pure hash
	// of (seed, peer, segment, attempt) — see fault.CorruptDraw — so the
	// outcome is identical across runs and -workers values and consumes
	// no engine randomness. An adversarial source fails verification the
	// same way: always for a corrupter, per-attempt via the equally pure
	// fault.PolluteDraw for a polluter. Either way the requester's
	// inference is the same — "this source served me garbage" — so the
	// source is charged a reputation verify-fail.
	advSrc := src.advKind == fault.AdvCorrupter || src.advKind == fault.AdvPolluter
	if (p.corruptPct > 0 || advSrc) && !p.src.Have[idx] {
		if p.segAttempts == nil {
			p.segAttempts = make([]int, len(s.segs))
		}
		attempt := p.segAttempts[idx]
		p.segAttempts[idx] = attempt + 1
		discard := false
		if p.corruptPct > 0 && fault.CorruptDraw(s.cfg.Seed, p.id, idx, attempt)*100 < p.corruptPct {
			discard = true
			p.corruptDiscards++
		}
		if !discard && advSrc {
			discard = src.advKind == fault.AdvCorrupter ||
				fault.PolluteDraw(s.cfg.Seed, src.id, p.id, idx, attempt)*100 < src.advPct
		}
		if discard {
			if s.cfg.Tracer.Enabled() {
				s.emit(p.id, idx, trace.CatPool, trace.EvVerifyFail,
					trace.Int64("attempt", int64(attempt)),
					trace.Int64("src", int64(src.id)))
			}
			s.observeRep(src, reputation.ObsVerifyFail)
			// Not a completion: no segment metrics, no have/player update.
			// Refill so the re-request launches immediately.
			s.fill(p)
			return
		}
	}
	if s.rep != nil {
		s.observeRep(src, s.rep.Config().ServeObservation(f.Size(), f.Elapsed()))
	}
	s.qoe.Segment(now, p.id, idx, f.Size(), f.Elapsed(), src.id)
	p.pool.Store(idx)
	if err := p.player.OnSegmentComplete(idx, now); err != nil {
		panic("simpeer: segment complete: " + err.Error()) // unreachable
	}
	// New availability can unblock any peer; refill everyone (p included).
	s.fillAll()
	// Once every active leecher holds every segment, background traffic has
	// served its purpose: cancel it so the simulation can drain.
	if len(s.cross) > 0 && s.allDownloadsDone() {
		for _, f := range s.cross {
			f.Cancel()
		}
		s.cross = nil
	}
}

// allDownloadsDone reports whether every non-departed leecher holds every
// segment.
func (s *swarm) allDownloadsDone() bool {
	for _, q := range s.peers[1:] {
		if !q.departed && q.pool.First != len(s.segs) {
			return false
		}
	}
	return true
}
